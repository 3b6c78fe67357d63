// Integer and modular arithmetic helpers used throughout the library.
//
// All functions are total over their stated preconditions and throw
// tp::Error otherwise.  Overflow in powi/factorial/binomial is checked.

#pragma once

#include <cstdint>

namespace tp {

using i32 = std::int32_t;
using i64 = std::int64_t;
using u16 = std::uint16_t;  ///< TCP port numbers (src/net/)
using u64 = std::uint64_t;
using i128 = __int128_t;   ///< exact load counts past 2^63 (src/load/)
using u128 = __uint128_t;

/// x mod m normalized into [0, m).  Requires m > 0; x may be negative.
i64 mod_norm(i64 x, i64 m);

/// Greatest common divisor (non-negative).  gcd(0, 0) == 0.
i64 gcd(i64 a, i64 b);

/// True iff a and m are relatively prime.  Requires m >= 1.
bool is_coprime(i64 a, i64 m);

/// base^exp with overflow checking.  Requires exp >= 0.
i64 powi(i64 base, i64 exp);

/// n! with overflow checking.  Requires 0 <= n <= 20.
i64 factorial(i64 n);

/// Binomial coefficient C(n, r) with overflow checking: throws exactly
/// when C(n, r) does not fit in i64.  Requires 0 <= r <= n.
i64 binomial(i64 n, i64 r);

/// C(n, r), or the largest i64 when it does not fit — for comparing a
/// count against a limit.  Requires 0 <= r <= n.
i64 saturating_binomial(i64 n, i64 r);

/// Cyclic distance between residues i and j modulo k (Definition 6):
/// min(i-j mod k, j-i mod k).  Requires k >= 1; i, j may be any integers.
i64 cyclic_distance(i64 i, i64 j, i64 k);

/// Ceiling division for non-negative integers.  Requires b > 0, a >= 0.
i64 ceil_div(i64 a, i64 b);

/// n/d correctly rounded to the nearest double (ties to even), for any
/// n < 2^127, also where n and d are past 2^53 and dividing their rounded
/// doubles is not.  Requires d > 0.
double round_quotient(u128 n, u64 d);

/// Modular inverse of a modulo m.  Requires m >= 1 and gcd(a, m) == 1.
i64 mod_inverse(i64 a, i64 m);

}  // namespace tp
