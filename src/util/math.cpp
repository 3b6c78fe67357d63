#include "src/util/math.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>

#include "src/util/error.h"

namespace tp {

i64 mod_norm(i64 x, i64 m) {
  TP_REQUIRE(m > 0, "modulus must be positive");
  i64 r = x % m;
  if (r < 0) r += m;
  return r;
}

i64 gcd(i64 a, i64 b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    i64 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

bool is_coprime(i64 a, i64 m) {
  TP_REQUIRE(m >= 1, "modulus must be >= 1");
  return gcd(a, m) == 1;
}

i64 powi(i64 base, i64 exp) {
  TP_REQUIRE(exp >= 0, "negative exponent");
  i64 result = 1;
  for (i64 i = 0; i < exp; ++i) {
    TP_REQUIRE(base == 0 ||
                   (result <= std::numeric_limits<i64>::max() / (base < 0 ? -base : base)),
               "powi overflow");
    result *= base;
  }
  return result;
}

i64 factorial(i64 n) {
  TP_REQUIRE(n >= 0 && n <= 20, "factorial argument out of [0, 20]");
  i64 result = 1;
  for (i64 i = 2; i <= n; ++i) result *= i;
  return result;
}

namespace {

/// C(n, r), or nullopt when it does not fit in i64.  Each step computes
/// C(n-r+i, i) = C(n-r+i-1, i-1)·(n-r+i)/i with the gcd of the running
/// value and i divided out first, so the product is exactly the next
/// binomial and overflows only when that binomial does — and the
/// binomials grow with i, so only when C(n, r) itself does.
std::optional<i64> checked_binomial(i64 n, i64 r) {
  TP_REQUIRE(n >= 0 && r >= 0 && r <= n, "binomial requires 0 <= r <= n");
  if (r > n - r) r = n - r;
  i64 result = 1;
  for (i64 i = 1; i <= r; ++i) {
    const i64 g = gcd(result, i);
    if (__builtin_mul_overflow(result / g, (n - r + i) / (i / g), &result))
      return std::nullopt;
  }
  return result;
}

}  // namespace

i64 binomial(i64 n, i64 r) {
  const std::optional<i64> c = checked_binomial(n, r);
  TP_REQUIRE(c.has_value(), "binomial overflow");
  return *c;
}

i64 saturating_binomial(i64 n, i64 r) {
  return checked_binomial(n, r).value_or(std::numeric_limits<i64>::max());
}

i64 cyclic_distance(i64 i, i64 j, i64 k) {
  TP_REQUIRE(k >= 1, "ring size must be >= 1");
  i64 fwd = mod_norm(j - i, k);
  i64 bwd = mod_norm(i - j, k);
  return fwd < bwd ? fwd : bwd;
}

i64 ceil_div(i64 a, i64 b) {
  TP_REQUIRE(b > 0 && a >= 0, "ceil_div requires a >= 0, b > 0");
  return (a + b - 1) / b;
}

double round_quotient(u128 n, u64 d) {
  TP_REQUIRE(d > 0, "zero denominator");
  const auto high = static_cast<u64>(n >> 64);
  // An exact quotient below 2^53 is its own double (and skips the u128
  // division).
  if (high == 0 && static_cast<u64>(n) % d == 0 &&
      static_cast<u64>(n) / d < (u64{1} << 53))
    return static_cast<double>(static_cast<u64>(n) / d);
  const auto n_bits = static_cast<int>(
      high != 0 ? 64 + std::bit_width(high) : std::bit_width(static_cast<u64>(n)));
  // Scale n by 2^shift so the integer quotient has at least 56 bits: its
  // top 53 are the significand, the next one rounds, and the sticky bit
  // (any remainder) lands below that, so the one rounding of the
  // u128 -> double conversion is the rounding of the exact quotient.
  const int shift =
      std::max(0, 56 + static_cast<int>(std::bit_width(d)) - n_bits);
  const u128 scaled = n << shift;
  u128 q = scaled / d;
  if (scaled % d != 0) q |= 1;
  return std::ldexp(static_cast<double>(q), -shift);
}

i64 mod_inverse(i64 a, i64 m) {
  TP_REQUIRE(m >= 1, "modulus must be >= 1");
  a = mod_norm(a, m);
  TP_REQUIRE(gcd(a, m) == 1, "mod_inverse requires gcd(a, m) == 1");
  // Extended Euclid on (a, m).
  i64 old_r = a, r = m;
  i64 old_s = 1, s = 0;
  while (r != 0) {
    i64 q = old_r / r;
    i64 tmp = old_r - q * r;
    old_r = r;
    r = tmp;
    tmp = old_s - q * s;
    old_s = s;
    s = tmp;
  }
  return mod_norm(old_s, m);
}

}  // namespace tp
