// Unit tests for src/util: integer math, SmallVec, NdRange, PRNG, and
// permutation/subset enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "src/util/build_info.h"
#include "src/util/combinatorics.h"
#include "src/util/error.h"
#include "src/util/math.h"
#include "src/util/ndrange.h"
#include "src/util/prng.h"
#include "src/util/small_vec.h"

namespace tp {
namespace {

// --- math -----------------------------------------------------------------

TEST(Math, ModNormNormalizesNegatives) {
  EXPECT_EQ(mod_norm(-1, 5), 4);
  EXPECT_EQ(mod_norm(-5, 5), 0);
  EXPECT_EQ(mod_norm(-6, 5), 4);
  EXPECT_EQ(mod_norm(7, 5), 2);
  EXPECT_EQ(mod_norm(0, 5), 0);
}

TEST(Math, ModNormRejectsBadModulus) {
  EXPECT_THROW(mod_norm(1, 0), Error);
  EXPECT_THROW(mod_norm(1, -3), Error);
}

TEST(Math, Gcd) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(0, 7), 7);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(gcd(13, 7), 1);
}

TEST(Math, IsCoprime) {
  EXPECT_TRUE(is_coprime(3, 8));
  EXPECT_FALSE(is_coprime(4, 8));
  EXPECT_TRUE(is_coprime(1, 1));
  EXPECT_TRUE(is_coprime(-3, 8));
}

TEST(Math, Powi) {
  EXPECT_EQ(powi(2, 10), 1024);
  EXPECT_EQ(powi(7, 0), 1);
  EXPECT_EQ(powi(0, 3), 0);
  EXPECT_EQ(powi(1, 62), 1);
  EXPECT_THROW(powi(2, 64), Error);
  EXPECT_THROW(powi(10, -1), Error);
}

TEST(Math, Factorial) {
  EXPECT_EQ(factorial(0), 1);
  EXPECT_EQ(factorial(1), 1);
  EXPECT_EQ(factorial(5), 120);
  EXPECT_EQ(factorial(20), 2432902008176640000LL);
  EXPECT_THROW(factorial(21), Error);
  EXPECT_THROW(factorial(-1), Error);
}

TEST(Math, Binomial) {
  EXPECT_EQ(binomial(5, 2), 10);
  EXPECT_EQ(binomial(10, 0), 1);
  EXPECT_EQ(binomial(10, 10), 1);
  EXPECT_EQ(binomial(52, 5), 2598960);
  EXPECT_THROW(binomial(3, 4), Error);
}

TEST(Math, BinomialThrowsOnlyOnTrueOverflow) {
  // Multiplying before dividing overflowed on these although they fit.
  EXPECT_EQ(binomial(62, 31), 465428353255261088LL);
  EXPECT_EQ(binomial(66, 33), 7219428434016265740LL);
  EXPECT_THROW(binomial(68, 34), Error);  // 28453041475240576740 > 2^63
}

TEST(Math, SaturatingBinomial) {
  EXPECT_EQ(saturating_binomial(52, 5), 2598960);
  EXPECT_EQ(saturating_binomial(66, 33), 7219428434016265740LL);
  EXPECT_EQ(saturating_binomial(68, 34), std::numeric_limits<i64>::max());
  EXPECT_EQ(saturating_binomial(216, 36), std::numeric_limits<i64>::max());
  EXPECT_THROW(saturating_binomial(3, 4), Error);
}

TEST(Math, BinomialPascalIdentity) {
  for (i64 n = 2; n <= 30; ++n)
    for (i64 r = 1; r < n; ++r)
      EXPECT_EQ(binomial(n, r), binomial(n - 1, r - 1) + binomial(n - 1, r))
          << "n=" << n << " r=" << r;
}

TEST(Math, CyclicDistanceDefinition6) {
  EXPECT_EQ(cyclic_distance(0, 1, 5), 1);
  EXPECT_EQ(cyclic_distance(0, 4, 5), 1);   // wraps
  EXPECT_EQ(cyclic_distance(0, 2, 5), 2);
  EXPECT_EQ(cyclic_distance(1, 1, 5), 0);
  EXPECT_EQ(cyclic_distance(0, 3, 6), 3);   // exactly half: tie distance
  EXPECT_EQ(cyclic_distance(7, 2, 6), 1);   // arbitrary representatives
}

TEST(Math, CyclicDistanceSymmetricAndBounded) {
  for (i64 k = 2; k <= 9; ++k)
    for (i64 i = 0; i < k; ++i)
      for (i64 j = 0; j < k; ++j) {
        EXPECT_EQ(cyclic_distance(i, j, k), cyclic_distance(j, i, k));
        EXPECT_LE(cyclic_distance(i, j, k), k / 2);
      }
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_THROW(ceil_div(1, 0), Error);
}

TEST(Math, ModInverse) {
  for (i64 m : {2, 3, 5, 7, 8, 9, 12}) {
    for (i64 a = 1; a < m; ++a) {
      if (gcd(a, m) != 1) continue;
      const i64 inv = mod_inverse(a, m);
      EXPECT_EQ(mod_norm(a * inv, m), 1) << "a=" << a << " m=" << m;
    }
  }
  EXPECT_THROW(mod_inverse(2, 4), Error);
}

// --- SmallVec ---------------------------------------------------------------

TEST(SmallVec, BasicOperations) {
  SmallVec<i32> v;
  EXPECT_TRUE(v.empty());
  v.push_back(3);
  v.push_back(1);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v.back(), 1);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
}

TEST(SmallVec, InitializerListAndEquality) {
  SmallVec<i32> a{1, 2, 3};
  SmallVec<i32> b{1, 2, 3};
  SmallVec<i32> c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(SmallVec, CapacityEnforced) {
  SmallVec<i32> v(kMaxDims, 0);
  EXPECT_THROW(v.push_back(1), Error);
  EXPECT_THROW((SmallVec<i32>(kMaxDims + 1, 0)), Error);
}

TEST(SmallVec, ResizeAndAt) {
  SmallVec<i32> v{5};
  v.resize(3, 7);
  EXPECT_EQ(v[0], 5);
  EXPECT_EQ(v[1], 7);
  EXPECT_EQ(v[2], 7);
  EXPECT_THROW(v.at(3), Error);
}

// --- NdRange ----------------------------------------------------------------

TEST(NdRange, CountsAllTuples) {
  Radices r{2, 3, 4};
  i64 count = 0;
  for (NdRange it(r); !it.done(); it.next()) ++count;
  EXPECT_EQ(count, 24);
  EXPECT_EQ(radix_product(r), 24);
}

TEST(NdRange, LexicographicOrder) {
  Radices r{2, 2};
  std::vector<Coord> seen;
  for (NdRange it(r); !it.done(); it.next()) seen.push_back(it.coord());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (Coord{0, 0}));
  EXPECT_EQ(seen[1], (Coord{0, 1}));
  EXPECT_EQ(seen[2], (Coord{1, 0}));
  EXPECT_EQ(seen[3], (Coord{1, 1}));
}

TEST(NdRange, RejectsZeroRadix) {
  EXPECT_THROW(NdRange(Radices{2, 0}), Error);
}

// --- PRNG -------------------------------------------------------------------

TEST(Prng, Deterministic) {
  Xoshiro256SS a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Xoshiro256SS a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Prng, BelowIsInRangeAndRoughlyUniform) {
  Xoshiro256SS rng(7);
  std::map<u64, int> counts;
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) {
    const u64 v = rng.below(6);
    ASSERT_LT(v, 6u);
    ++counts[v];
  }
  for (const auto& [v, c] : counts) {
    EXPECT_GT(c, draws / 6 - draws / 30) << "value " << v;
    EXPECT_LT(c, draws / 6 + draws / 30) << "value " << v;
  }
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256SS rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, BelowZeroThrows) {
  Xoshiro256SS rng(1);
  EXPECT_THROW(rng.below(0), Error);
}

// --- combinatorics ----------------------------------------------------------

TEST(Combinatorics, PermutationCount) {
  for (std::size_t n = 0; n <= 6; ++n) {
    SmallVec<i32> items;
    for (std::size_t i = 0; i < n; ++i) items.push_back(static_cast<i32>(i));
    std::set<std::vector<i32>> seen;
    for_each_permutation(items, [&](const SmallVec<i32>& perm) {
      seen.insert(std::vector<i32>(perm.begin(), perm.end()));
    });
    EXPECT_EQ(static_cast<i64>(seen.size()),
              factorial(static_cast<i64>(n)))
        << "n=" << n;
  }
}

TEST(Combinatorics, PermutationsAreRearrangements) {
  SmallVec<i32> items{4, 7, 9};
  for_each_permutation(items, [&](const SmallVec<i32>& perm) {
    std::vector<i32> sorted(perm.begin(), perm.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<i32>{4, 7, 9}));
  });
}

TEST(Combinatorics, SubsetCount) {
  int count = 0;
  for_each_subset(5, [&](std::uint32_t) { ++count; });
  EXPECT_EQ(count, 32);
}

TEST(Combinatorics, SubsetMasksDistinct) {
  std::set<std::uint32_t> seen;
  for_each_subset(4, [&](std::uint32_t m) { seen.insert(m); });
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(15));
}

TEST(Combinatorics, Popcount) {
  EXPECT_EQ(popcount32(0), 0);
  EXPECT_EQ(popcount32(0b1011), 3);
}

TEST(BuildInfo, EveryProvenanceFieldIsPopulated) {
  // Values come from configure-time CMake substitution; the contract is
  // that nothing is null or empty (git_describe degrades to "unknown"
  // outside a checkout, never to "").
  const BuildInfo& info = build_info();
  for (const char* field : {info.version, info.git_describe, info.compiler,
                            info.flags, info.build_type}) {
    ASSERT_NE(field, nullptr);
    EXPECT_NE(std::string_view(field), "");
  }
  EXPECT_NE(std::string_view(info.version).find('.'), std::string_view::npos);
}

}  // namespace
}  // namespace tp
