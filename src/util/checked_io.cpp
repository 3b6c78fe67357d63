#include "src/util/checked_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/util/error.h"

namespace tp::util {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Directory part of a path ("." when there is none) — for fsyncing the
/// directory entry after a rename.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort: some filesystems refuse dir opens
  ::fsync(fd);
  ::close(fd);
}

/// Record framing constants shared by writer and readers.
constexpr std::uint32_t kTrailerMarker = 0xFFFFFFFFu;
constexpr std::size_t kFrameHeader = 2 * sizeof(std::uint32_t);
/// A single record larger than this is treated as corruption (no snapshot
/// entry is anywhere near it; a huge length is a scrambled length field).
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

}  // namespace

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

namespace {

/// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// bytes fold in with eight independent lookups (slicing-by-8) instead of
/// a chain of eight: the same CRC, several times faster, which keeps the
/// snapshot load of a warm boot cheap.
struct Crc32Table {
  std::uint32_t entries[8][256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        entries[k][i] = (entries[k - 1][i] >> 8) ^
                        entries[0][entries[k - 1][i] & 0xFFu];
  }
};

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t n) {
  static const Crc32Table table;
  const auto& t = table.entries;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    const std::uint32_t lo =
        c ^ (std::uint32_t{bytes[0]} | std::uint32_t{bytes[1]} << 8 |
             std::uint32_t{bytes[2]} << 16 | std::uint32_t{bytes[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][bytes[4]] ^
        t[2][bytes[5]] ^ t[1][bytes[6]] ^ t[0][bytes[7]];
  }
  for (; n > 0; --n, ++bytes) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t n) {
  return crc32_update(0, data, n);
}

// ---------------------------------------------------------------------------
// ByteBuffer / ByteView
// ---------------------------------------------------------------------------

void ByteBuffer::put_u8(std::uint8_t v) {
  data_.push_back(static_cast<char>(v));
}

void ByteBuffer::put_u32(std::uint32_t v) {
  data_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void ByteBuffer::put_u64(u64 v) {
  data_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void ByteBuffer::put_i32(i32 v) {
  data_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void ByteBuffer::put_i64(i64 v) {
  data_.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void ByteBuffer::put_f64(double v) {
  u64 bits = 0;
  static_assert(sizeof bits == sizeof v, "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void ByteBuffer::put_string(std::string_view s) {
  TP_REQUIRE(s.size() < kMaxRecordBytes, "string too large to serialize");
  put_u32(static_cast<std::uint32_t>(s.size()));
  data_.append(s.data(), s.size());
}

void ByteView::need(std::size_t n) const {
  if (data_.size() - pos_ < n)
    throw Error("truncated record: need " + std::to_string(n) +
                " byte(s), have " + std::to_string(data_.size() - pos_));
}

std::uint8_t ByteView::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteView::get_u32() {
  need(sizeof(std::uint32_t));
  std::uint32_t v;
  std::memcpy(&v, data_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

u64 ByteView::get_u64() {
  need(sizeof(u64));
  u64 v;
  std::memcpy(&v, data_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

i32 ByteView::get_i32() {
  need(sizeof(i32));
  i32 v;
  std::memcpy(&v, data_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

i64 ByteView::get_i64() {
  need(sizeof(i64));
  i64 v;
  std::memcpy(&v, data_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

double ByteView::get_f64() {
  const u64 bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string ByteView::get_string() {
  const std::uint32_t n = get_u32();
  if (n >= kMaxRecordBytes)
    throw Error("truncated record: implausible string length " +
                std::to_string(n));
  need(n);
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

// ---------------------------------------------------------------------------
// CheckedFileWriter
// ---------------------------------------------------------------------------

CheckedFileWriter::CheckedFileWriter(std::string path, std::string_view magic)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  TP_REQUIRE(magic.size() == kFileMagicSize,
             "file magic must be exactly 8 bytes");
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0)
    throw Error("cannot create '" + tmp_path_ + "': " + errno_text());
  write_raw(magic.data(), magic.size(), /*count_in_crc=*/true);
}

CheckedFileWriter::~CheckedFileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!committed_) ::unlink(tmp_path_.c_str());
}

void CheckedFileWriter::write_raw(const void* data, std::size_t n,
                                  bool count_in_crc) {
  const char* p = static_cast<const char*>(data);
  std::size_t left = n;
  while (left > 0) {
    const ssize_t wrote = ::write(fd_, p, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw Error("write to '" + tmp_path_ + "' failed: " + errno_text());
    }
    p += wrote;
    left -= static_cast<std::size_t>(wrote);
  }
  if (count_in_crc) file_crc_ = crc32_update(file_crc_, data, n);
  bytes_ += static_cast<i64>(n);
}

void CheckedFileWriter::append(std::string_view payload) {
  TP_REQUIRE(!committed_, "append after commit");
  TP_REQUIRE(payload.size() < kMaxRecordBytes, "record payload too large");
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  write_raw(&len, sizeof len, true);
  write_raw(&crc, sizeof crc, true);
  write_raw(payload.data(), payload.size(), true);
  ++records_;
}

void CheckedFileWriter::commit() {
  TP_REQUIRE(!committed_, "commit called twice");
  // Trailer: marker + whole-file CRC (over everything before the trailer)
  // + record count.  Not part of the running CRC by construction.
  const std::uint32_t marker = kTrailerMarker;
  const std::uint32_t crc = file_crc_;
  const u64 count = records_;
  write_raw(&marker, sizeof marker, false);
  write_raw(&crc, sizeof crc, false);
  write_raw(&count, sizeof count, false);
  if (::fsync(fd_) != 0)
    throw Error("fsync '" + tmp_path_ + "' failed: " + errno_text());
  ::close(fd_);
  fd_ = -1;
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0)
    throw Error("rename '" + tmp_path_ + "' -> '" + path_ +
                "' failed: " + errno_text());
  committed_ = true;
  fsync_dir(dir_of(path_));
}

// ---------------------------------------------------------------------------
// read_checked_file
// ---------------------------------------------------------------------------

namespace {

/// Reads a whole file; throws on open/read failure.
std::string slurp(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw Error("cannot open '" + path + "': " + errno_text());
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got < 0) {
      if (errno == EINTR) continue;
      const std::string err = errno_text();
      ::close(fd);
      throw Error("read '" + path + "' failed: " + err);
    }
    if (got == 0) break;
    data.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return data;
}

/// Parses one frame at `pos`.  Returns false on a clean trailer marker;
/// throws on anything that does not parse as a complete, CRC-valid
/// record.
bool parse_frame(const std::string& data, std::size_t& pos,
                 std::string& payload) {
  if (data.size() - pos < kFrameHeader)
    throw Error("truncated frame header at offset " + std::to_string(pos));
  std::uint32_t len, crc;
  std::memcpy(&len, data.data() + pos, sizeof len);
  std::memcpy(&crc, data.data() + pos + sizeof len, sizeof crc);
  if (len == kTrailerMarker) return false;  // trailer begins here
  if (len >= kMaxRecordBytes)
    throw Error("implausible record length " + std::to_string(len) +
                " at offset " + std::to_string(pos));
  if (data.size() - pos - kFrameHeader < len)
    throw Error("truncated record payload at offset " + std::to_string(pos));
  const char* body = data.data() + pos + kFrameHeader;
  if (crc32(body, len) != crc)
    throw Error("record CRC mismatch at offset " + std::to_string(pos));
  payload.assign(body, len);
  pos += kFrameHeader + len;
  return true;
}

}  // namespace

std::vector<std::string> read_checked_file(const std::string& path,
                                           std::string_view magic) {
  TP_REQUIRE(magic.size() == kFileMagicSize,
             "file magic must be exactly 8 bytes");
  const std::string data = slurp(path);
  if (data.size() < kFileMagicSize)
    throw Error("'" + path + "' is shorter than the file magic");
  if (std::string_view(data).substr(0, kFileMagicSize) != magic)
    throw Error("'" + path + "' has the wrong magic (not a " +
                std::string(magic) + " file)");

  std::vector<std::string> records;
  std::size_t pos = kFileMagicSize;
  std::string payload;
  while (parse_frame(data, pos, payload)) records.push_back(payload);

  // Trailer: marker (already seen) + file CRC + record count, and nothing
  // after it.
  const std::size_t trailer = pos;
  const std::size_t trailer_size =
      2 * sizeof(std::uint32_t) + sizeof(u64);
  if (data.size() - trailer < trailer_size)
    throw Error("truncated trailer in '" + path + "'");
  if (data.size() - trailer > trailer_size)
    throw Error("trailing garbage after the trailer in '" + path + "'");
  std::uint32_t stored_crc;
  u64 stored_count;
  std::memcpy(&stored_crc, data.data() + trailer + sizeof(std::uint32_t),
              sizeof stored_crc);
  std::memcpy(&stored_count,
              data.data() + trailer + 2 * sizeof(std::uint32_t),
              sizeof stored_count);
  if (stored_count != records.size())
    throw Error("record count mismatch in '" + path + "': trailer says " +
                std::to_string(stored_count) + ", found " +
                std::to_string(records.size()));
  if (crc32(data.data(), trailer) != stored_crc)
    throw Error("whole-file CRC mismatch in '" + path +
                "' (snapshot is corrupt)");
  return records;
}

// ---------------------------------------------------------------------------
// AppendLog
// ---------------------------------------------------------------------------

AppendLog::AppendLog(const std::string& path, std::string_view magic)
    : path_(path) {
  TP_REQUIRE(magic.size() == kFileMagicSize,
             "file magic must be exactly 8 bytes");
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0)
    throw Error("cannot open journal '" + path_ + "': " + errno_text());

  std::string data;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t got = ::read(fd_, buf, sizeof buf);
      if (got < 0) {
        if (errno == EINTR) continue;
        const std::string err = errno_text();
        ::close(fd_);
        fd_ = -1;
        throw Error("read journal '" + path_ + "' failed: " + err);
      }
      if (got == 0) break;
      data.append(buf, static_cast<std::size_t>(got));
    }
  }

  if (data.empty()) {
    // Fresh journal: write the magic now so a crash right after creation
    // still leaves a parseable (empty) journal.
    std::size_t off = 0;
    while (off < magic.size()) {
      const ssize_t wrote =
          ::write(fd_, magic.data() + off, magic.size() - off);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        const std::string err = errno_text();
        ::close(fd_);
        fd_ = -1;
        throw Error("write journal '" + path_ + "' failed: " + err);
      }
      off += static_cast<std::size_t>(wrote);
    }
    ::fsync(fd_);
    return;
  }

  if (data.size() < kFileMagicSize ||
      std::string_view(data).substr(0, kFileMagicSize) != magic) {
    ::close(fd_);
    fd_ = -1;
    throw Error("journal '" + path_ + "' has the wrong magic (not a " +
                std::string(magic) + " journal)");
  }

  // Replay complete records; stop at the first frame that does not parse
  // (torn tail from a crash mid-append) and truncate it away so appends
  // continue from a clean boundary.
  std::size_t pos = kFileMagicSize;
  std::string payload;
  for (;;) {
    if (pos == data.size()) break;
    const std::size_t frame_start = pos;
    try {
      if (!parse_frame(data, pos, payload)) {
        // A trailer marker cannot appear in a journal; treat as torn.
        torn_ = true;
        pos = frame_start;
        break;
      }
    } catch (const Error&) {
      torn_ = true;
      pos = frame_start;
      break;
    }
    records_.push_back(payload);
  }
  if (torn_) {
    if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
      const std::string err = errno_text();
      ::close(fd_);
      fd_ = -1;
      throw Error("truncate journal '" + path_ + "' failed: " + err);
    }
    ::fsync(fd_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    const std::string err = errno_text();
    ::close(fd_);
    fd_ = -1;
    throw Error("seek journal '" + path_ + "' failed: " + err);
  }
}

AppendLog::~AppendLog() {
  if (fd_ >= 0) ::close(fd_);
}

void AppendLog::append(std::string_view payload) {
  TP_REQUIRE(fd_ >= 0, "append on a closed journal");
  TP_REQUIRE(payload.size() < kMaxRecordBytes, "record payload too large");
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof len);
  frame.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  frame.append(payload.data(), payload.size());
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t wrote = ::write(fd_, frame.data() + off, frame.size() - off);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw Error("append to journal '" + path_ + "' failed: " +
                  errno_text());
    }
    off += static_cast<std::size_t>(wrote);
  }
  if (::fsync(fd_) != 0)
    throw Error("fsync journal '" + path_ + "' failed: " + errno_text());
  records_.push_back(std::string(payload));
}

}  // namespace tp::util
