#include "src/service/snapshot.h"

#include <algorithm>
#include <utility>

#include "src/util/build_info.h"
#include "src/util/checked_io.h"
#include "src/util/error.h"

namespace tp::service {
namespace {

constexpr std::string_view kSnapshotMagic = "TPSNAP01";

// QueryKey field codecs.  The decoded key is re-hashed and compared
// against the stored hash, so a record whose key bytes were damaged (but
// whose CRC was regenerated, as corruption tests do deliberately) is
// still refused.
constexpr i32 kMaxSnapshotDims = 8;

void encode_query_key(util::ByteBuffer& buf, const QueryKey& key) {
  buf.put_u8(static_cast<std::uint8_t>(key.dims()));
  for (i32 r : key.radices) buf.put_i32(r);
  buf.put_i32(key.t);
  buf.put_u8(static_cast<std::uint8_t>(key.router));
  buf.put_u8(key.measure ? 1 : 0);
  buf.put_u8(key.bounds ? 1 : 0);
}

QueryKey decode_query_key(util::ByteView& view) {
  QueryKey key;
  const i32 ndims = static_cast<i32>(view.get_u8());
  TP_REQUIRE(ndims >= 1 && ndims <= kMaxSnapshotDims,
             "snapshot entry: dimension count out of range");
  for (i32 d = 0; d < ndims; ++d) key.radices.push_back(view.get_i32());
  TP_REQUIRE(std::is_sorted(key.radices.begin(), key.radices.end()),
             "snapshot entry: radices not in canonical (sorted) order");
  key.t = view.get_i32();
  const std::uint8_t router = view.get_u8();
  TP_REQUIRE(router <= 2, "snapshot entry: unknown router kind");
  key.router = static_cast<RouterKind>(router);
  key.measure = view.get_u8() != 0;
  key.bounds = view.get_u8() != 0;
  return key;
}

}  // namespace

std::string snapshot_build_key() {
  const auto& info = build_info();
  return std::string(info.version) + " " + info.git_describe;
}

std::string encode_query_result(const QueryResult& result) {
  util::ByteBuffer buf;
  buf.put_u64(result.key.hash());
  encode_query_key(buf, result.key);

  buf.put_string(result.placement_name);
  buf.put_string(result.router_name);
  buf.put_string(result.summary);
  buf.put_i64(result.placement_size);
  buf.put_f64(result.predicted_emax);
  buf.put_u8(result.prediction_exact ? 1 : 0);
  buf.put_f64(result.lower_bound);

  buf.put_f64(result.measured_emax);
  buf.put_f64(result.mean_load);
  buf.put_i64(result.loaded_links);

  buf.put_u32(static_cast<std::uint32_t>(result.bound_table.size()));
  for (const auto& b : result.bound_table) {
    buf.put_string(b.name);
    buf.put_f64(b.value);
    buf.put_u8(b.applicable ? 1 : 0);
    buf.put_string(b.note);
  }
  buf.put_u8(result.has_slab ? 1 : 0);
  if (result.has_slab) {
    buf.put_f64(result.slab.value);
    buf.put_i32(result.slab.dim);
    buf.put_i32(result.slab.lo);
    buf.put_i32(result.slab.len);
    buf.put_i64(result.slab.procs_in);
    buf.put_i64(result.slab.boundary);
  }
  return buf.data();
}

QueryResult decode_query_result(std::string_view payload) {
  util::ByteView view(payload);
  QueryResult result;

  const u64 stored_hash = view.get_u64();
  result.key = decode_query_key(view);
  TP_REQUIRE(result.key.hash() == stored_hash,
             "snapshot entry: key hash mismatch (damaged key fields)");

  result.placement_name = view.get_string();
  result.router_name = view.get_string();
  result.summary = view.get_string();
  result.placement_size = view.get_i64();
  result.predicted_emax = view.get_f64();
  result.prediction_exact = view.get_u8() != 0;
  result.lower_bound = view.get_f64();

  result.measured_emax = view.get_f64();
  result.mean_load = view.get_f64();
  result.loaded_links = view.get_i64();

  const std::uint32_t nbounds = view.get_u32();
  TP_REQUIRE(nbounds <= 64, "snapshot entry: implausible bound table size");
  result.bound_table.reserve(nbounds);
  for (std::uint32_t i = 0; i < nbounds; ++i) {
    BoundValue b;
    b.name = view.get_string();
    b.value = view.get_f64();
    b.applicable = view.get_u8() != 0;
    b.note = view.get_string();
    result.bound_table.push_back(std::move(b));
  }
  result.has_slab = view.get_u8() != 0;
  if (result.has_slab) {
    result.slab.value = view.get_f64();
    result.slab.dim = view.get_i32();
    result.slab.lo = view.get_i32();
    result.slab.len = view.get_i32();
    result.slab.procs_in = view.get_i64();
    result.slab.boundary = view.get_i64();
  }
  TP_REQUIRE(view.empty(), "snapshot entry: trailing bytes after result");
  return result;
}

SnapshotWriteInfo save_cache_snapshot(const PlanCache& cache,
                                      const std::string& path,
                                      const SnapshotIdentity& identity) {
  // One consistent pass over the shards: shard order, MRU-first within
  // each shard; the loader re-inserts in reverse so relative recency
  // survives a round trip.
  const auto entries = cache.entries_mru();

  util::CheckedFileWriter writer(path, kSnapshotMagic);
  util::ByteBuffer header;
  header.put_u32(identity.format_version);
  header.put_string(identity.build_key.empty() ? snapshot_build_key()
                                               : identity.build_key);
  header.put_u64(static_cast<u64>(entries.size()));
  writer.append(header.data());
  for (const auto& entry : entries)
    writer.append(encode_query_result(*entry.second));
  writer.commit();

  SnapshotWriteInfo info;
  info.entries = static_cast<i64>(entries.size());
  info.bytes = writer.bytes_written();
  return info;
}

SnapshotLoadInfo load_cache_snapshot(PlanCache& cache,
                                     const std::string& path) {
  SnapshotLoadInfo info;
  std::vector<std::shared_ptr<const QueryResult>> entries;
  try {
    const std::vector<std::string> records =
        util::read_checked_file(path, kSnapshotMagic);
    TP_REQUIRE(!records.empty(), "snapshot has no header record");

    util::ByteView header(records[0]);
    const std::uint32_t version = header.get_u32();
    TP_REQUIRE(version == kSnapshotFormatVersion,
               "snapshot format version " + std::to_string(version) +
                   " != supported " + std::to_string(kSnapshotFormatVersion));
    const std::string build_key = header.get_string();
    TP_REQUIRE(build_key == snapshot_build_key(),
               "snapshot build key \"" + build_key +
                   "\" != this binary's \"" + snapshot_build_key() + "\"");
    const u64 count = header.get_u64();
    TP_REQUIRE(header.empty(), "snapshot header has trailing bytes");
    TP_REQUIRE(count == records.size() - 1,
               "snapshot header count disagrees with record count");

    // Decode (and thereby verify) everything before touching the cache:
    // a bad entry anywhere must leave the cache cold, not half-warm.
    entries.reserve(records.size() - 1);
    for (std::size_t i = 1; i < records.size(); ++i)
      entries.push_back(
          std::make_shared<QueryResult>(decode_query_result(records[i])));
  } catch (const Error& e) {
    info.error = e.what();
    return info;
  } catch (const std::exception& e) {
    info.error = e.what();
    return info;
  }

  // Saved order is shard-by-shard MRU-first; inserting in reverse makes
  // the last put the most recent, restoring relative recency per shard.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it)
    cache.put((*it)->key, *it);
  info.ok = true;
  info.entries = static_cast<i64>(entries.size());
  return info;
}

}  // namespace tp::service
