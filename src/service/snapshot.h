// Versioned binary snapshots of the PlanCache.
//
// A snapshot makes the service's expensive-but-immutable working set
// survive a restart: save_cache_snapshot() serializes every resident
// (QueryKey, QueryResult) pair into one checked file
// (src/util/checked_io.h — CRC-framed records, whole-file CRC, atomic
// temp+fsync+rename replacement) and load_cache_snapshot() warms a cache
// back up from it.
//
// File layout (record payloads inside the checked container):
//   record 0   header: format version (u32), build key (string),
//              entry count (u64)
//   record i   one cache entry: the QueryKey's stable hash (u64,
//              cross-checked against the hash recomputed from the decoded
//              key), the key fields, and the full QueryResult — doubles
//              as raw IEEE-754 bits, so a loaded result is bit-identical
//              to the computed one, and its rendered body, so a warmed
//              cache serves responses byte-identical to cold computation
//              without rendering anything.
//
// Compatibility: the build key is "<version> <git describe>" — the same
// provenance `torusplace version` prints.  A snapshot written by a
// different build is refused (results could legitimately differ across
// code changes), as is a different format version.
//
// Failure model: load_cache_snapshot NEVER throws and NEVER partially
// populates.  The whole file is parsed and verified first; only then are
// entries inserted.  Any corruption — truncation, bit-flip, version or
// build-key mismatch, a scrambled length field — yields {ok = false,
// error = "<what>"} and an untouched (cold) cache.  save_cache_snapshot
// throws tp::Error on I/O failure (callers report and carry on serving).
//
// Entry order: shards are walked in index order, each most-recently-used
// first, and the loader re-inserts least-recent first — so a cache
// reloaded with the same shape preserves the saved eviction order.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/service/plan_cache.h"
#include "src/service/query.h"

namespace tp::service {

/// Bumped whenever the record layout, or the meaning of the stored raw
/// IEEE bits, changes; old files are refused.  Version 2: UDR loads are
/// the correctly rounded exact rationals, no longer double sums.
/// Version 3: entries carry no per-link load map, and mean_load is the
/// exact ΣLee / 2dN.  Version 4: entries carry their rendered response
/// body (QueryResult::body), so a restored entry is served as stored.
constexpr std::uint32_t kSnapshotFormatVersion = 4;

/// The compatibility key baked into every snapshot: "<version> <git>".
/// `torusplace version` prints the same fields (docs/durability.md).
std::string snapshot_build_key();

/// Identity stamped into a snapshot header.  Overridable only so tests
/// can fabricate version/build mismatches.
struct SnapshotIdentity {
  std::uint32_t format_version = kSnapshotFormatVersion;
  std::string build_key;  ///< empty = snapshot_build_key()
};

struct SnapshotWriteInfo {
  i64 entries = 0;
  i64 bytes = 0;
};

struct SnapshotLoadInfo {
  bool ok = false;
  i64 entries = 0;     ///< entries inserted (0 unless ok)
  std::string error;   ///< structured reason when !ok
};

/// Serializes every resident entry of `cache` into `path`, atomically
/// replacing any previous snapshot.  Throws tp::Error on I/O failure; on
/// throw the previous snapshot (if any) is intact.
SnapshotWriteInfo save_cache_snapshot(const PlanCache& cache,
                                      const std::string& path,
                                      const SnapshotIdentity& identity = {});

/// Loads `path` into `cache`.  All-or-nothing and never throws: on any
/// corruption or mismatch the cache is left untouched and the returned
/// info carries the reason.
SnapshotLoadInfo load_cache_snapshot(PlanCache& cache,
                                     const std::string& path);

/// One cache entry's record payload — shared with the checkpoint journals
/// (a sweep cell is exactly one QueryResult).  decode throws tp::Error on
/// any malformed input, including a stored-vs-recomputed key hash
/// mismatch.
std::string encode_query_result(const QueryResult& result);
QueryResult decode_query_result(std::string_view payload);

}  // namespace tp::service
