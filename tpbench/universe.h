// Key universes and request streams of the benchmark workloads.
//
// Every request the benchmark sends is a request_line() for a key drawn,
// with the run seed, from one of these universes; the program under test
// sees only the resulting JSONL lines.  A request's
// "id" is the index of its key in the workload's universe, so every answer
// to one key is byte-identical (checker rule 6).
//
// The universes themselves are fixed (independent of the seed): the seed
// orders the sweep grid and the warm-up, and drives the key draws.
// Keeping the universe fixed keeps the work per run comparable across
// seeds, which is what the run-to-run spread bounds assume.

#pragma once

#include <string>
#include <vector>

#include "src/service/query.h"

namespace tpbench {

using tp::i32;
using tp::i64;
using tp::u64;
using tp::service::QueryKey;

/// One request line (newline-terminated) for `key`, carrying `id`.
std::string request_line(const QueryKey& key, i64 id);

/// sweep_cold: 35 `analyze` keys (ODR d=2..4 t=1..3, UDR d=3..4,
/// adaptive d=2..3), each costing at most ~25 ms cold.
std::vector<QueryKey> sweep_grid();

/// batch_hot: 64 plan/bounds/load/analyze keys on T_k^2 and T_k^3 with
/// k <= 12, all in the snapshot every pass boots from.
std::vector<QueryKey> hot_universe();

/// tcp_mixed_closed: 904 load/analyze keys over ODR/UDR/adaptive on
/// d = 2..4 whose cold compute costs at most ~4 ms, in a fixed
/// pseudo-random order; zipf rank r draws element r.
std::vector<QueryKey> mixed_universe();

/// A seeded Fisher-Yates permutation of 0..n-1.
std::vector<i64> shuffled_indices(i64 n, u64 seed);

/// Independent stream seed `stream` derived from the run seed.
u64 stream_seed(u64 seed, u64 stream);

}  // namespace tpbench
