// Ablation bench — implementation design choices of the load analyzer.
//
//   * UDR subset-weight accumulation vs s!-order enumeration through the
//     Rational oracle (identical loads; the subset method trades factorial
//     for 2^s)
//   * load-computation cost scaling in |P| for each router
//   * reference (Definition 4 literal) vs specialized fast paths

#include "bench/bench_common.h"
#include "src/core/torusplace.h"

namespace tp {
namespace {

void print_tables() {
  bench_banner("Ablation: UDR load algorithms agree",
               "subset-weight fast path == s! enumeration (max |diff| "
               "reported)");
  Table table({"d", "k", "max abs diff", "E_max"});
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {4, 5}) {
      Torus torus(d, k);
      const Placement p = linear_placement(torus);
      const LoadMap fast = udr_loads(torus, p);
      const LoadMap slow = reference_loads(torus, p, UdrRouter());
      table.add_row({fmt(static_cast<long long>(d)),
                     fmt(static_cast<long long>(k)),
                     fmt(fast.max_abs_diff(slow), 12), fmt(fast.max_load())});
    }
  table.print(std::cout);
  std::cout << std::endl;
}

void BM_UdrSubsetWeights(benchmark::State& state) {
  const i32 k = static_cast<i32>(state.range(0));
  Torus torus(3, k);
  const Placement p = linear_placement(torus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(udr_loads(torus, p).max_load());
  }
}

void BM_UdrEnumerated(benchmark::State& state) {
  const i32 k = static_cast<i32>(state.range(0));
  Torus torus(3, k);
  const Placement p = linear_placement(torus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reference_loads(torus, p, UdrRouter()).max_load());
  }
}

void BM_OdrReference(benchmark::State& state) {
  const i32 k = static_cast<i32>(state.range(0));
  Torus torus(3, k);
  const Placement p = linear_placement(torus);
  OdrRouter odr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference_loads(torus, p, odr).max_load());
  }
}

void BM_OdrFast(benchmark::State& state) {
  const i32 k = static_cast<i32>(state.range(0));
  Torus torus(3, k);
  const Placement p = linear_placement(torus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(odr_loads(torus, p).max_load());
  }
}

void BM_OdrParallel(benchmark::State& state) {
  const i32 k = static_cast<i32>(state.range(0));
  const i32 threads = static_cast<i32>(state.range(1));
  Torus torus(3, k);
  const Placement p = linear_placement(torus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        odr_orbit_loads(torus, p, TieBreak::PositiveOnly, threads)
            .broadcast(torus)
            .max_load());
  }
  state.counters["threads"] = threads;
}

void BM_AdaptiveLoads(benchmark::State& state) {
  const i32 k = static_cast<i32>(state.range(0));
  Torus torus(2, k);
  const Placement p = linear_placement(torus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adaptive_loads(torus, p).max_load());
  }
}

BENCHMARK(BM_UdrSubsetWeights)->Arg(4)->Arg(6)->Arg(8)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_UdrEnumerated)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OdrReference)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OdrFast)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_OdrParallel)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdaptiveLoads)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tp

TP_BENCH_MAIN(tp::print_tables)
