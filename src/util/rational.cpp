#include "src/util/rational.h"

#include <limits>

namespace tp {

double Rational::to_double() const {
  const u64 n = num_ < 0 ? 0 - static_cast<u64>(num_) : static_cast<u64>(num_);
  const double magnitude = round_quotient(n, static_cast<u64>(den_));
  return num_ < 0 ? -magnitude : magnitude;
}

i64 Rational::checked_mul(i64 a, i64 b) {
  i64 result = 0;
  TP_REQUIRE(!__builtin_mul_overflow(a, b, &result), "rational overflow");
  return result;
}

i64 Rational::checked_add(i64 a, i64 b) {
  i64 result = 0;
  TP_REQUIRE(!__builtin_add_overflow(a, b, &result), "rational overflow");
  return result;
}

void Rational::normalize() {
  TP_REQUIRE(den_ != 0, "zero denominator");
  if (den_ < 0) {
    TP_REQUIRE(den_ != std::numeric_limits<i64>::min() &&
                   num_ != std::numeric_limits<i64>::min(),
               "rational overflow");
    num_ = -num_;
    den_ = -den_;
  }
  const i64 g = gcd(num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

Rational& Rational::operator+=(const Rational& other) {
  // Reduce cross terms by gcd of denominators to delay overflow.
  const i64 g = gcd(den_, other.den_);
  const i64 scale_self = other.den_ / g;
  const i64 scale_other = den_ / g;
  num_ = checked_add(checked_mul(num_, scale_self),
                     checked_mul(other.num_, scale_other));
  den_ = checked_mul(den_, scale_self);
  normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& other) {
  return *this += Rational(-other.num_, other.den_);
}

Rational& Rational::operator*=(const Rational& other) {
  // Cross-cancel before multiplying.
  const i64 g1 = gcd(num_, other.den_);
  const i64 g2 = gcd(other.num_, den_);
  num_ = checked_mul(num_ / g1, other.num_ / g2);
  den_ = checked_mul(den_ / g2, other.den_ / g1);
  normalize();
  return *this;
}

Rational& Rational::operator/=(const Rational& other) {
  TP_REQUIRE(other.num_ != 0, "division by zero rational");
  return *this *= Rational(other.den_, other.num_);
}

}  // namespace tp
