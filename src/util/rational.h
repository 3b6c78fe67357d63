// Exact rational arithmetic for load bookkeeping.
//
// Definition 4's loads are sums of fractions 1/|C_{p->q}| — rationals with
// denominators dividing lcm(1!, ..., d!) (times 2^d with tie splitting).
// The ODR and UDR analyzers return these as correctly rounded doubles;
// reference_loads (src/load/complete_exchange.h) sums them as Rationals
// and rounds once, so the kernels must equal it bit for bit.  Overflow
// throws (tp::Error) rather than wrapping.

#pragma once

#include <compare>
#include <string>

#include "src/util/error.h"
#include "src/util/math.h"

namespace tp {

/// An exact fraction num/den, always normalized (den > 0, gcd = 1).
class Rational {
 public:
  constexpr Rational() = default;
  Rational(i64 num, i64 den = 1) : num_(num), den_(den) { normalize(); }

  i64 num() const { return num_; }
  i64 den() const { return den_; }

  /// num/den correctly rounded (to nearest, ties to even), also when num
  /// or den is past 2^53, where dividing two rounded doubles is not.
  double to_double() const;

  std::string str() const {
    return den_ == 1 ? std::to_string(num_)
                     : std::to_string(num_) + "/" + std::to_string(den_);
  }

  Rational& operator+=(const Rational& other);
  Rational& operator-=(const Rational& other);
  Rational& operator*=(const Rational& other);
  Rational& operator/=(const Rational& other);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }
  friend Rational operator-(const Rational& a) {
    return Rational(-a.num_, a.den_);
  }

  friend bool operator==(const Rational& a, const Rational& b) = default;
  friend std::strong_ordering operator<=>(const Rational& a,
                                          const Rational& b) {
    // a/b <=> c/d  iff  a*d <=> c*b  (denominators positive).
    return checked_mul(a.num_, b.den_) <=> checked_mul(b.num_, a.den_);
  }

 private:
  static i64 checked_mul(i64 a, i64 b);
  static i64 checked_add(i64 a, i64 b);
  void normalize();

  i64 num_ = 0;
  i64 den_ = 1;
};

}  // namespace tp
