// Tests for the durability layer: checked binary I/O (CRC framing, atomic
// replace, append logs), PlanCache snapshots (bit-exact round trips,
// corruption fuzzing, version/build-key gating), checkpoint journals, and
// the engine's warm-boot / periodic-save plumbing.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/resilience.h"
#include "src/service/service.h"
#include "src/util/checked_io.h"
#include "src/util/error.h"

namespace tp::service {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

bool file_exists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return is.good();
}

QueryKey key_dk(i32 d, i32 k, i32 t = 1, RouterKind r = RouterKind::Odr,
                QueryOp op = QueryOp::Plan) {
  Radices radices;
  for (i32 i = 0; i < d; ++i) radices.push_back(k);
  return make_query_key(radices, t, r, op);
}

std::shared_ptr<const QueryResult> dummy_result(const QueryKey& key) {
  auto r = std::make_shared<QueryResult>();
  r->key = key;
  r->placement_name = "dummy";
  return r;
}

// ------------------------------------------------------------------ CRC32

TEST(Crc32, KnownAnswerAndComposition) {
  // The IEEE 802.3 check value: CRC32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(util::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(s, 0), 0u);

  // Streaming in two chunks must equal one shot.
  std::uint32_t crc = util::crc32_update(0, s, 4);
  crc = util::crc32_update(crc, s + 4, 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

// ------------------------------------------------- ByteBuffer / ByteView

TEST(ByteCodec, RoundTripsEveryType) {
  util::ByteBuffer buf;
  buf.put_u8(0xAB);
  buf.put_u32(0xDEADBEEFu);
  buf.put_u64(0x0123456789ABCDEFull);
  buf.put_i32(-42);
  buf.put_i64(-(i64{1} << 60));
  buf.put_f64(0.1);  // not exactly representable: bit pattern must survive
  buf.put_f64(-0.0);
  buf.put_string("");
  buf.put_string(std::string("nul\0byte", 8));

  util::ByteView view(buf.data());
  EXPECT_EQ(view.get_u8(), 0xAB);
  EXPECT_EQ(view.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(view.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(view.get_i32(), -42);
  EXPECT_EQ(view.get_i64(), -(i64{1} << 60));
  EXPECT_EQ(view.get_f64(), 0.1);
  const double neg_zero = view.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(view.get_string(), "");
  EXPECT_EQ(view.get_string(), std::string("nul\0byte", 8));
  EXPECT_TRUE(view.empty());
}

TEST(ByteCodec, ReadsPastTheEndThrow) {
  util::ByteBuffer buf;
  buf.put_u32(7);
  util::ByteView view(buf.data());
  EXPECT_EQ(view.get_u32(), 7u);
  EXPECT_THROW(view.get_u8(), Error);

  // A corrupt string length cannot walk out of the buffer.
  util::ByteBuffer lie;
  lie.put_u32(1000);  // claims 1000 bytes of string; none follow
  util::ByteView liar(lie.data());
  EXPECT_THROW(liar.get_string(), Error);
}

// ------------------------------------------------------- Checked files

TEST(CheckedFile, WriteReadRoundTrip) {
  const std::string path = temp_path("tp_checked_roundtrip.bin");
  std::remove(path.c_str());
  {
    util::CheckedFileWriter writer(path, "TESTMAG1");
    writer.append("first");
    writer.append("");  // empty payloads are legal records
    writer.append(std::string("bin\0ary", 7));
    writer.commit();
    EXPECT_GT(writer.bytes_written(), 0);
  }
  const std::vector<std::string> records =
      util::read_checked_file(path, "TESTMAG1");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "first");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], std::string("bin\0ary", 7));

  EXPECT_THROW(util::read_checked_file(path, "OTHERMAG"), Error);
  std::remove(path.c_str());
}

TEST(CheckedFile, AbandonedWriterLeavesNoTrace) {
  const std::string path = temp_path("tp_checked_abandon.bin");
  std::remove(path.c_str());
  {
    util::CheckedFileWriter writer(path, "TESTMAG1");
    writer.append("doomed");
    // no commit()
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(CheckedFile, AbandonedRewritePreservesPreviousFile) {
  const std::string path = temp_path("tp_checked_preserve.bin");
  std::remove(path.c_str());
  {
    util::CheckedFileWriter writer(path, "TESTMAG1");
    writer.append("generation 1");
    writer.commit();
  }
  {
    util::CheckedFileWriter writer(path, "TESTMAG1");
    writer.append("generation 2, never committed");
  }
  const auto records = util::read_checked_file(path, "TESTMAG1");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "generation 1");
  std::remove(path.c_str());
}

TEST(CheckedFile, EveryByteFlipAndTruncationIsDetected) {
  const std::string path = temp_path("tp_checked_fuzz.bin");
  std::remove(path.c_str());
  {
    util::CheckedFileWriter writer(path, "TESTMAG1");
    writer.append("payload one");
    writer.append("payload two is a little longer");
    writer.commit();
  }
  const std::string good = read_file(path);
  ASSERT_GT(good.size(), util::kFileMagicSize);

  // Any single flipped bit anywhere — magic, length field, payload, CRC,
  // trailer — must be reported, never served or crashed on.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    write_file(path, bad);
    EXPECT_THROW(util::read_checked_file(path, "TESTMAG1"), Error)
        << "byte flip at offset " << i << " went undetected";
  }

  // Any truncation — mid-magic, mid-length, mid-payload, mid-trailer.
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(path, good.substr(0, len));
    EXPECT_THROW(util::read_checked_file(path, "TESTMAG1"), Error)
        << "truncation to " << len << " bytes went undetected";
  }

  write_file(path, good);
  EXPECT_EQ(util::read_checked_file(path, "TESTMAG1").size(), 2u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- Append logs

TEST(AppendLog, PersistsAcrossReopen) {
  const std::string path = temp_path("tp_appendlog.journal");
  std::remove(path.c_str());
  {
    util::AppendLog log(path, "TESTJRN1");
    EXPECT_TRUE(log.records().empty());
    EXPECT_FALSE(log.recovered_torn_tail());
    log.append("alpha");
    log.append("beta");
  }
  {
    util::AppendLog log(path, "TESTJRN1");
    ASSERT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[0], "alpha");
    EXPECT_EQ(log.records()[1], "beta");
    EXPECT_FALSE(log.recovered_torn_tail());
    log.append("gamma");
  }
  {
    util::AppendLog log(path, "TESTJRN1");
    EXPECT_EQ(log.records().size(), 3u);
  }
  std::remove(path.c_str());
}

TEST(AppendLog, TruncatesTornTailAndKeepsCompleteRecords) {
  const std::string path = temp_path("tp_appendlog_torn.journal");
  std::remove(path.c_str());
  {
    util::AppendLog log(path, "TESTJRN1");
    log.append("complete record");
  }
  const std::string good = read_file(path);

  // A crash mid-append leaves any prefix of the next record.  Whatever
  // the cut, reopening must recover exactly the complete records and
  // flag the torn tail; a further append then works normally.
  util::ByteBuffer next;
  next.put_string("next record, never fully written");
  std::string frame;
  {
    // Frame it the way append() would: u32 len, u32 crc, payload.
    util::ByteBuffer f;
    f.put_u32(static_cast<std::uint32_t>(next.data().size()));
    f.put_u32(util::crc32(next.data().data(), next.data().size()));
    frame = f.data() + next.data();
  }
  for (std::size_t cut = 1; cut < frame.size(); ++cut) {
    write_file(path, good + frame.substr(0, cut));
    util::AppendLog log(path, "TESTJRN1");
    ASSERT_EQ(log.records().size(), 1u) << "cut at " << cut;
    EXPECT_EQ(log.records()[0], "complete record");
    EXPECT_TRUE(log.recovered_torn_tail()) << "cut at " << cut;
    log.append("recovered");
  }
  {
    util::AppendLog log(path, "TESTJRN1");
    ASSERT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[1], "recovered");
  }
  std::remove(path.c_str());
}

TEST(AppendLog, WrongMagicRefused) {
  const std::string path = temp_path("tp_appendlog_magic.journal");
  std::remove(path.c_str());
  { util::AppendLog log(path, "TESTJRN1"); }
  EXPECT_THROW(util::AppendLog(path, "OTHERJRN"), Error);
  std::remove(path.c_str());
}

// ------------------------------------------------- QueryResult codec

TEST(SnapshotCodec, FullAnalyzeResultRoundTripsBitExact) {
  const QueryKey key = key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Analyze);
  const QueryResult original = compute_query(key);
  const QueryResult copy = decode_query_result(encode_query_result(original));

  EXPECT_EQ(copy.key, original.key);
  EXPECT_EQ(copy.placement_name, original.placement_name);
  EXPECT_EQ(copy.router_name, original.router_name);
  EXPECT_EQ(copy.summary, original.summary);
  EXPECT_EQ(copy.placement_size, original.placement_size);
  EXPECT_EQ(copy.predicted_emax, original.predicted_emax);
  EXPECT_EQ(copy.prediction_exact, original.prediction_exact);
  EXPECT_EQ(copy.lower_bound, original.lower_bound);
  EXPECT_EQ(copy.measured_emax, original.measured_emax);
  EXPECT_EQ(copy.mean_load, original.mean_load);
  EXPECT_EQ(copy.loaded_links, original.loaded_links);
  // Format 3 stores no per-link map; the record is every remaining field,
  // and re-encoding the copy gives the same bytes.
  EXPECT_EQ(original.loads, nullptr);
  EXPECT_EQ(copy.loads, nullptr);
  EXPECT_EQ(encode_query_result(copy), encode_query_result(original));
  ASSERT_EQ(copy.bound_table.size(), original.bound_table.size());
  for (std::size_t i = 0; i < original.bound_table.size(); ++i) {
    EXPECT_EQ(copy.bound_table[i].name, original.bound_table[i].name);
    EXPECT_EQ(copy.bound_table[i].value, original.bound_table[i].value);
    EXPECT_EQ(copy.bound_table[i].applicable,
              original.bound_table[i].applicable);
    EXPECT_EQ(copy.bound_table[i].note, original.bound_table[i].note);
  }
  EXPECT_EQ(copy.has_slab, original.has_slab);
  if (original.has_slab) {
    EXPECT_EQ(copy.slab.value, original.slab.value);
    EXPECT_EQ(copy.slab.dim, original.slab.dim);
    EXPECT_EQ(copy.slab.lo, original.slab.lo);
    EXPECT_EQ(copy.slab.len, original.slab.len);
    EXPECT_EQ(copy.slab.procs_in, original.slab.procs_in);
    EXPECT_EQ(copy.slab.boundary, original.slab.boundary);
  }
}

TEST(SnapshotCodec, DamagedKeyFieldsAreRefusedByHashCheck) {
  const QueryResult original = compute_query(key_dk(2, 4));
  std::string payload = encode_query_result(original);
  // Layout: u64 hash, u8 ndims, i32 radix[0], i32 radix[1], ...
  // Nudge radix[1] from 4 to 5: still sorted, still decodes — but the
  // recomputed key hash no longer matches the stored one.
  const std::size_t radix1_lsb = 8 + 1 + 4;
  payload[radix1_lsb] = static_cast<char>(payload[radix1_lsb] ^ 1);
  EXPECT_THROW(decode_query_result(payload), Error);
}

TEST(SnapshotCodec, TrailingBytesRefused) {
  const QueryResult original = compute_query(key_dk(2, 4));
  std::string payload = encode_query_result(original);
  payload.push_back('\0');
  EXPECT_THROW(decode_query_result(payload), Error);
}

// ------------------------------------------------- PlanCache snapshots

TEST(Snapshot, SaveLoadRoundTripWarmServesIdenticalResults) {
  const std::string path = temp_path("tp_snapshot_roundtrip.snap");
  std::remove(path.c_str());

  PlanCache cache(8, 2);
  const std::vector<QueryKey> keys = {
      key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Analyze),
      key_dk(2, 4, 1, RouterKind::Udr, QueryOp::Load),
      key_dk(2, 6),
  };
  for (const QueryKey& key : keys)
    cache.put(key, std::make_shared<QueryResult>(compute_query(key)));

  const SnapshotWriteInfo write = save_cache_snapshot(cache, path);
  EXPECT_EQ(write.entries, 3);
  EXPECT_GT(write.bytes, 0);

  PlanCache warmed(8, 2);
  const SnapshotLoadInfo load = load_cache_snapshot(warmed, path);
  EXPECT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.entries, 3);
  EXPECT_EQ(warmed.size(), 3u);

  for (const QueryKey& key : keys) {
    const auto cold = cache.get(key);
    const auto warm = warmed.get(key);
    ASSERT_NE(warm, nullptr) << key.str();
    EXPECT_EQ(encode_query_result(*warm), encode_query_result(*cold))
        << key.str();  // byte-for-byte, doubles included
  }
  std::remove(path.c_str());
}

TEST(Snapshot, PreservesEvictionOrderAcrossRoundTrip) {
  const std::string path = temp_path("tp_snapshot_mru.snap");
  std::remove(path.c_str());

  // One shard so the recency order is global and observable.
  PlanCache cache(3, 1);
  const QueryKey a = key_dk(2, 4), b = key_dk(2, 6), c = key_dk(2, 8);
  cache.put(a, dummy_result(a));
  cache.put(b, dummy_result(b));
  cache.put(c, dummy_result(c));
  ASSERT_NE(cache.get(a), nullptr);  // recency now: a, c, b

  save_cache_snapshot(cache, path);
  PlanCache warmed(3, 1);
  ASSERT_TRUE(load_cache_snapshot(warmed, path).ok);

  const auto order = warmed.shard_keys_mru(0);
  const auto expected = cache.shard_keys_mru(0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, expected);

  // The next eviction therefore hits the same victim (b) in both.
  const QueryKey d = key_dk(2, 10);
  warmed.put(d, dummy_result(d));
  EXPECT_EQ(warmed.get(b), nullptr);
  EXPECT_NE(warmed.get(a), nullptr);
  EXPECT_NE(warmed.get(c), nullptr);
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileIsAStructuredColdBoot) {
  PlanCache cache(8, 2);
  const SnapshotLoadInfo info =
      load_cache_snapshot(cache, temp_path("tp_no_such_snapshot.snap"));
  EXPECT_FALSE(info.ok);
  EXPECT_FALSE(info.error.empty());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Snapshot, FormatVersionMismatchRefused) {
  const std::string path = temp_path("tp_snapshot_version.snap");
  std::remove(path.c_str());
  PlanCache cache(8, 2);
  const QueryKey key = key_dk(2, 4);
  cache.put(key, dummy_result(key));

  SnapshotIdentity future;
  future.format_version = kSnapshotFormatVersion + 1;
  save_cache_snapshot(cache, path, future);

  PlanCache warmed(8, 2);
  const SnapshotLoadInfo info = load_cache_snapshot(warmed, path);
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error.find("format version"), std::string::npos);
  EXPECT_EQ(warmed.size(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, FormatVersion2BootsCold) {
  // Version 2 entries carried a per-link load map; they are refused whole.
  const std::string path = temp_path("tp_snapshot_version2.snap");
  std::remove(path.c_str());
  PlanCache cache(8, 2);
  const QueryKey key = key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Load);
  cache.put(key, std::make_shared<QueryResult>(compute_query(key)));

  SnapshotIdentity old;
  old.format_version = 2;
  save_cache_snapshot(cache, path, old);

  PlanCache warmed(8, 2);
  const SnapshotLoadInfo info = load_cache_snapshot(warmed, path);
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error.find("snapshot format version 2 != supported 3"),
            std::string::npos)
      << info.error;
  EXPECT_EQ(info.entries, 0);
  EXPECT_EQ(warmed.size(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, BuildKeyMismatchRefused) {
  const std::string path = temp_path("tp_snapshot_buildkey.snap");
  std::remove(path.c_str());
  PlanCache cache(8, 2);
  const QueryKey key = key_dk(2, 4);
  cache.put(key, dummy_result(key));

  SnapshotIdentity other;
  other.build_key = "torusplace 0.0.0 some-other-build";
  save_cache_snapshot(cache, path, other);

  PlanCache warmed(8, 2);
  const SnapshotLoadInfo info = load_cache_snapshot(warmed, path);
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error.find("build key"), std::string::npos);
  EXPECT_EQ(warmed.size(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, EveryCorruptionDegradesToColdNeverThrowsNeverPartial) {
  const std::string path = temp_path("tp_snapshot_fuzz.snap");
  std::remove(path.c_str());
  PlanCache cache(8, 2);
  for (const QueryKey& key :
       {key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Load), key_dk(2, 6)})
    cache.put(key, std::make_shared<QueryResult>(compute_query(key)));
  save_cache_snapshot(cache, path);
  const std::string good = read_file(path);

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    write_file(path, bad);
    PlanCache victim(8, 2);
    const SnapshotLoadInfo info = load_cache_snapshot(victim, path);
    EXPECT_FALSE(info.ok) << "byte flip at offset " << i;
    EXPECT_FALSE(info.error.empty()) << "byte flip at offset " << i;
    EXPECT_EQ(victim.size(), 0u) << "byte flip at offset " << i;
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(path, good.substr(0, len));
    PlanCache victim(8, 2);
    const SnapshotLoadInfo info = load_cache_snapshot(victim, path);
    EXPECT_FALSE(info.ok) << "truncation to " << len;
    EXPECT_EQ(victim.size(), 0u) << "truncation to " << len;
  }

  write_file(path, good);
  PlanCache warmed(8, 2);
  EXPECT_TRUE(load_cache_snapshot(warmed, path).ok);
  EXPECT_EQ(warmed.size(), 2u);
  std::remove(path.c_str());
}

// -------------------------------------------------- Engine integration

TEST(EngineSnapshot, DisabledByDefault) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const SnapshotStatus status = engine.snapshot_status();
  EXPECT_FALSE(status.configured);
  EXPECT_FALSE(status.load_attempted);
  EXPECT_EQ(status.load_outcome, "disabled");
  EXPECT_EQ(status.last_save_outcome, "none");
  EXPECT_FALSE(engine.save_snapshot());  // nowhere to save
}

TEST(EngineSnapshot, SaveIsSkippedWhenClean) {
  const std::string path = temp_path("tp_engine_dirty.snap");
  std::remove(path.c_str());
  EngineConfig config;
  config.threads = 1;
  config.snapshot_path = path;
  Engine engine(config);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);

  EXPECT_TRUE(engine.save_snapshot(/*only_if_dirty=*/true));
  EXPECT_EQ(engine.snapshot_status().saves, 1);
  // Nothing computed since: the dirty-gated save is a no-op...
  EXPECT_TRUE(engine.save_snapshot(/*only_if_dirty=*/true));
  EXPECT_EQ(engine.snapshot_status().saves, 1);
  // ...but an unconditional save still writes.
  EXPECT_TRUE(engine.save_snapshot());
  EXPECT_EQ(engine.snapshot_status().saves, 2);

  ASSERT_TRUE(engine.run({key_dk(2, 6)}).ok);
  EXPECT_TRUE(engine.save_snapshot(/*only_if_dirty=*/true));
  const SnapshotStatus status = engine.snapshot_status();
  EXPECT_EQ(status.saves, 3);
  EXPECT_EQ(status.last_save_outcome, "ok");
  EXPECT_EQ(status.last_save_entries, 2);
  EXPECT_EQ(status.save_failures, 0);
  std::remove(path.c_str());
}

TEST(EngineSnapshot, WarmBootServesByteIdenticalWithZeroPlansComputed) {
  const std::string path = temp_path("tp_engine_warm.snap");
  std::remove(path.c_str());
  const std::string batch =
      "{\"id\":1,\"op\":\"analyze\",\"d\":2,\"k\":4}\n"
      "{\"id\":2,\"op\":\"load\",\"d\":2,\"k\":4,\"router\":\"udr\"}\n"
      "{\"id\":3,\"op\":\"plan\",\"d\":2,\"k\":6}\n";

  std::string cold_out;
  {
    EngineConfig config;
    config.threads = 2;
    config.snapshot_path = path;
    config.snapshot_save = true;  // shutdown save in the destructor
    Engine engine(config);
    std::istringstream in(batch);
    std::ostringstream out;
    EXPECT_EQ(run_batch(engine, in, out), 3);
    cold_out = out.str();
    EXPECT_GT(engine.stats().plans_computed, 0);
  }
  ASSERT_TRUE(file_exists(path));

  EngineConfig config;
  config.threads = 2;
  config.snapshot_path = path;
  config.snapshot_load = true;
  Engine engine(config);
  const SnapshotStatus status = engine.snapshot_status();
  EXPECT_TRUE(status.configured);
  EXPECT_TRUE(status.load_attempted);
  EXPECT_EQ(status.load_outcome, "warm") << status.load_outcome;
  EXPECT_EQ(status.warm_entries, 3);

  std::istringstream in(batch);
  std::ostringstream out;
  EXPECT_EQ(run_batch(engine, in, out), 3);
  EXPECT_EQ(out.str(), cold_out);  // byte-identical to cold computation
  EXPECT_EQ(engine.stats().plans_computed, 0);
  EXPECT_EQ(engine.stats().cache_hits, 3);
  std::remove(path.c_str());
}

TEST(EngineSnapshot, CorruptSnapshotDegradesToColdAndKeepsServing) {
  const std::string path = temp_path("tp_engine_corrupt.snap");
  std::remove(path.c_str());
  {
    EngineConfig config;
    config.threads = 1;
    config.snapshot_path = path;
    Engine engine(config);
    ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);
    ASSERT_TRUE(engine.save_snapshot());
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  write_file(path, bytes);

  EngineConfig config;
  config.threads = 1;
  config.snapshot_path = path;
  config.snapshot_load = true;
  Engine engine(config);
  const SnapshotStatus status = engine.snapshot_status();
  EXPECT_TRUE(status.load_attempted);
  EXPECT_EQ(status.warm_entries, 0);
  EXPECT_EQ(status.load_outcome.rfind("error: ", 0), 0u)
      << status.load_outcome;

  // The service is degraded to a cold cache, not down.
  const Response response = engine.run({key_dk(2, 4)});
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(engine.stats().plans_computed, 1);
  std::remove(path.c_str());
}

TEST(EngineSnapshot, PeriodicSaverWritesWithoutShutdown) {
  const std::string path = temp_path("tp_engine_saver.snap");
  std::remove(path.c_str());
  {
    EngineConfig config;
    config.threads = 1;
    config.snapshot_path = path;
    config.snapshot_save = true;
    config.snapshot_interval_ms = 10;
    Engine engine(config);
    ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);
    // The background saver must persist the entry without any shutdown.
    for (int i = 0; i < 500 && engine.snapshot_status().saves == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GE(engine.snapshot_status().saves, 1);
    EXPECT_TRUE(file_exists(path));
  }
  PlanCache warmed(8, 2);
  EXPECT_TRUE(load_cache_snapshot(warmed, path).ok);
  EXPECT_EQ(warmed.size(), 1u);
  std::remove(path.c_str());
}

// --------------------------------------------------- Checkpoint journal

TEST(Checkpoint, RecordsResumeAcrossReopen) {
  const std::string dir = temp_path("tp_ckpt_resume");
  const std::string run_key = "test-run d=2 ks=4,6";
  std::remove((dir + "/cells.journal").c_str());
  {
    CheckpointJournal journal(dir, "cells", run_key);
    EXPECT_EQ(journal.resumed_cells(), 0);
    EXPECT_EQ(journal.find("cell-a"), nullptr);
    journal.record("cell-a", "result-a");
    journal.record("cell-b", "result-b");
  }
  {
    CheckpointJournal journal(dir, "cells", run_key);
    EXPECT_EQ(journal.resumed_cells(), 2);
    ASSERT_NE(journal.find("cell-a"), nullptr);
    EXPECT_EQ(*journal.find("cell-a"), "result-a");
    ASSERT_NE(journal.find("cell-b"), nullptr);
    EXPECT_EQ(*journal.find("cell-b"), "result-b");
    EXPECT_EQ(journal.find("cell-c"), nullptr);
    journal.record("cell-c", "result-c");
  }
  {
    CheckpointJournal journal(dir, "cells", run_key);
    EXPECT_EQ(journal.resumed_cells(), 3);
  }
  std::remove((dir + "/cells.journal").c_str());
}

TEST(Checkpoint, RunKeyMismatchRefused) {
  const std::string dir = temp_path("tp_ckpt_runkey");
  std::remove((dir + "/cells.journal").c_str());
  { CheckpointJournal journal(dir, "cells", "run A"); }
  EXPECT_THROW(CheckpointJournal(dir, "cells", "run B"), Error);
  // The original key still opens fine (refusal must not damage the file).
  { CheckpointJournal journal(dir, "cells", "run A"); }
  std::remove((dir + "/cells.journal").c_str());
}

TEST(Checkpoint, LatestRecordWinsOnReplay) {
  const std::string dir = temp_path("tp_ckpt_latest");
  std::remove((dir + "/cells.journal").c_str());
  {
    CheckpointJournal journal(dir, "cells", "run");
    journal.record("cell", "v1");
    journal.record("cell", "v2");
  }
  CheckpointJournal journal(dir, "cells", "run");
  ASSERT_NE(journal.find("cell"), nullptr);
  EXPECT_EQ(*journal.find("cell"), "v2");
  std::remove((dir + "/cells.journal").c_str());
}

// --------------------------------------------- DegradationReport codec

TEST(ResilienceCodec, ReportRoundTripsBitExact) {
  DegradationReport r;
  r.router_name = "udr";
  r.fault_rate = 1e-4;
  r.injected = 4032;
  r.delivered = 4030;
  r.dropped = 2;
  r.retries = 17;
  r.rerouted = 9;
  r.fail_events = 5;
  r.repair_events = 1;
  r.delivered_fraction = 4030.0 / 4032.0;
  r.baseline_cycles = 321;
  r.cycles = 407;
  r.completion_inflation = 407.0 / 321.0;
  r.baseline_emax = 32.0;
  r.degraded_emax = 37.0;
  r.emax_inflation = 37.0 / 32.0;

  const DegradationReport copy =
      decode_degradation_report(encode_degradation_report(r));
  EXPECT_EQ(copy.router_name, r.router_name);
  EXPECT_EQ(copy.fault_rate, r.fault_rate);
  EXPECT_EQ(copy.injected, r.injected);
  EXPECT_EQ(copy.delivered, r.delivered);
  EXPECT_EQ(copy.dropped, r.dropped);
  EXPECT_EQ(copy.retries, r.retries);
  EXPECT_EQ(copy.rerouted, r.rerouted);
  EXPECT_EQ(copy.fail_events, r.fail_events);
  EXPECT_EQ(copy.repair_events, r.repair_events);
  EXPECT_EQ(copy.delivered_fraction, r.delivered_fraction);
  EXPECT_EQ(copy.baseline_cycles, r.baseline_cycles);
  EXPECT_EQ(copy.cycles, r.cycles);
  EXPECT_EQ(copy.completion_inflation, r.completion_inflation);
  EXPECT_EQ(copy.baseline_emax, r.baseline_emax);
  EXPECT_EQ(copy.degraded_emax, r.degraded_emax);
  EXPECT_EQ(copy.emax_inflation, r.emax_inflation);

  // The JSONL rendering — what the resilience table and exports print —
  // is therefore identical too.
  EXPECT_EQ(degradation_json_line(copy), degradation_json_line(r));
}

TEST(ResilienceCodec, TrailingBytesRefused) {
  DegradationReport r;
  r.router_name = "odr";
  std::string payload = encode_degradation_report(r);
  payload.push_back('x');
  EXPECT_THROW(decode_degradation_report(payload), Error);
}

}  // namespace
}  // namespace tp::service
