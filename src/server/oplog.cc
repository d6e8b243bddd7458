#include "server/oplog.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "io/checksum.h"

namespace kspin::server {
namespace {

constexpr char kOplogMagic[8] = {'K', 'S', 'O', 'P', 'L', 'O', 'G', '1'};
constexpr char kOplogPrefix[] = "oplog-";
constexpr char kOplogSuffix[] = ".log";
constexpr char kTempSuffix[] = ".tmp";
constexpr std::size_t kSegmentHeaderBytes = 8 + 8;
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8;
// A record larger than this is structurally invalid: nothing on the apply
// path encodes anywhere near it, so a giant length field means corruption.
constexpr std::uint32_t kMaxRecordPayload = 4u << 20;

void PutLe64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void PutLe32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t GetLe64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{in[i]} << (8 * i);
  return v;
}

std::uint32_t GetLe32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{in[i]} << (8 * i);
  return v;
}

// CRC of one record: the sequence (little-endian) chained with the payload.
std::uint32_t RecordCrc(std::uint64_t sequence,
                        std::span<const std::uint8_t> payload) {
  std::uint8_t seq_le[8];
  PutLe64(seq_le, sequence);
  const std::uint32_t seed = io::Crc32c(seq_le, sizeof seq_le);
  return io::Crc32c(payload.data(), payload.size(), seed);
}

bool WriteAllFd(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// The snapshot layer's fsync helpers are file-local, so the log carries
// its own (returning false instead of throwing: the append path reports
// failure through its return value).
bool FsyncFdQuiet(int fd) {
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool FsyncDirQuiet(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = FsyncFdQuiet(fd);
  ::close(fd);
  return ok;
}

struct SegmentScan {
  std::uint64_t first_sequence = 0;  ///< From the header (0 = bad header).
  std::uint64_t last_sequence = 0;   ///< 0 when the segment holds no record.
  std::uint64_t valid_bytes = 0;     ///< Header + every valid record.
  bool corrupt_tail = false;
  std::string detail;
  std::vector<OplogRecord> records;  ///< Filled only when collect is set.
};

// Reads one segment file, validating header and records; stops at the
// first invalid record. `expect_first` (nonzero) pins the header's first
// sequence (continuity across segments). Records with sequence >
// from_sequence are collected when `collect` is set. Returns false when
// the scan ended at damage rather than the genuine end of the segment.
bool ScanSegment(const std::string& path, std::uint64_t expect_first,
                 bool collect, std::uint64_t from_sequence,
                 SegmentScan* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out->detail = "cannot open " + path;
    out->corrupt_tail = true;
    return false;
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    out->detail = "read failed for " + path;
    out->corrupt_tail = true;
    return false;
  }
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  if (bytes.size() < kSegmentHeaderBytes ||
      std::memcmp(data, kOplogMagic, 8) != 0) {
    out->detail = "bad segment header in " + path;
    out->corrupt_tail = true;
    return false;
  }
  out->first_sequence = GetLe64(data + 8);
  if (expect_first != 0 && out->first_sequence != expect_first) {
    out->detail = "segment " + path + " starts at sequence " +
                  std::to_string(out->first_sequence) + ", expected " +
                  std::to_string(expect_first);
    out->corrupt_tail = true;
    return false;
  }
  std::size_t pos = kSegmentHeaderBytes;
  std::uint64_t expect_seq = out->first_sequence;
  out->valid_bytes = pos;
  while (pos + kRecordHeaderBytes <= bytes.size()) {
    const std::uint32_t size = GetLe32(data + pos);
    const std::uint32_t crc = GetLe32(data + pos + 4);
    const std::uint64_t seq = GetLe64(data + pos + 8);
    if (size > kMaxRecordPayload ||
        pos + kRecordHeaderBytes + size > bytes.size()) {
      // A record running past EOF is a torn tail from a crash; an absurd
      // length field is bit rot. Both end the valid prefix here.
      out->corrupt_tail = true;
      out->detail = "torn or oversized record at byte " +
                    std::to_string(pos) + " of " + path;
      break;
    }
    const std::span<const std::uint8_t> payload(
        data + pos + kRecordHeaderBytes, size);
    if (RecordCrc(seq, payload) != crc) {
      out->corrupt_tail = true;
      out->detail = "record checksum mismatch at byte " +
                    std::to_string(pos) + " of " + path;
      break;
    }
    if (seq != expect_seq) {
      out->corrupt_tail = true;
      out->detail = "sequence discontinuity at byte " + std::to_string(pos) +
                    " of " + path + " (got " + std::to_string(seq) +
                    ", expected " + std::to_string(expect_seq) + ")";
      break;
    }
    if (collect && seq > from_sequence) {
      out->records.push_back(
          OplogRecord{seq, {payload.begin(), payload.end()}});
    }
    pos += kRecordHeaderBytes + size;
    out->valid_bytes = pos;
    out->last_sequence = seq;
    ++expect_seq;
  }
  if (!out->corrupt_tail && pos != bytes.size()) {
    // Trailing bytes too short for a record header: torn tail.
    out->corrupt_tail = true;
    out->detail = "truncated record header at byte " + std::to_string(pos) +
                  " of " + path;
  }
  return !out->corrupt_tail;
}

}  // namespace

std::string OplogSegmentFileName(std::uint64_t first_sequence) {
  char name[64];
  std::snprintf(name, sizeof name, "%s%06llu%s", kOplogPrefix,
                static_cast<unsigned long long>(first_sequence),
                kOplogSuffix);
  return name;
}

std::vector<std::pair<std::uint64_t, std::string>> FindOplogSegments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    const std::size_t prefix_len = sizeof(kOplogPrefix) - 1;
    const std::size_t suffix_len = sizeof(kOplogSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len) continue;
    if (name.compare(0, prefix_len, kOplogPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len, kOplogSuffix) !=
        0) {
      continue;
    }
    const char* digits = name.data() + prefix_len;
    const char* digits_end = name.data() + name.size() - suffix_len;
    std::uint64_t seq = 0;
    const auto [ptr, err] = std::from_chars(digits, digits_end, seq);
    if (err != std::errc() || ptr != digits_end) continue;
    out.emplace_back(seq, entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

OplogReplayResult ReplayOplog(
    const std::string& dir, std::uint64_t from_sequence,
    const std::function<void(const OplogRecord&)>& apply) {
  OplogReplayResult result;
  if (dir.empty()) return result;
  const auto segments = FindOplogSegments(dir);
  std::uint64_t expect_first = 0;
  for (const auto& [first_seq, path] : segments) {
    SegmentScan scan;
    const bool clean =
        ScanSegment(path, expect_first, /*collect=*/true, from_sequence,
                    &scan);
    for (const OplogRecord& record : scan.records) {
      apply(record);
      ++result.records_applied;
    }
    if (scan.last_sequence != 0) result.last_sequence = scan.last_sequence;
    if (!clean) {
      result.stopped_at_corruption = true;
      result.corruption_detail = scan.detail;
      break;  // Everything after a bad record is unreachable history.
    }
    expect_first = scan.last_sequence == 0 ? scan.first_sequence
                                           : scan.last_sequence + 1;
  }
  return result;
}

Oplog::Oplog(OplogOptions options) : options_(std::move(options)) {}

Oplog::~Oplog() { Close(); }

bool Oplog::Crash(OplogPhase phase) {
  if (options_.hooks.on_phase && !options_.hooks.on_phase(phase)) {
    crashed_ = true;
    return true;
  }
  return false;
}

bool Oplog::Open(std::uint64_t next_sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  last_sequence_ = next_sequence > 0 ? next_sequence - 1 : 0;
  if (!Enabled()) {
    durable_sequence_ = appended_sequence_ = last_sequence_;
    return true;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  // Remove stray temp files from a crashed rotation.
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::size_t tmp_len = sizeof(kTempSuffix) - 1;
    if (name.size() > tmp_len &&
        name.compare(name.size() - tmp_len, tmp_len, kTempSuffix) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  const auto segments = FindOplogSegments(options_.dir);
  std::uint64_t expect_first = 0;
  std::uint64_t last_valid = 0;
  oldest_sequence_ = 0;
  active_path_.clear();
  bool drop_rest = false;
  for (const auto& [first_seq, path] : segments) {
    if (drop_rest) {
      // Unreachable history beyond a damaged segment.
      std::filesystem::remove(path, ec);
      continue;
    }
    SegmentScan scan;
    const bool clean =
        ScanSegment(path, expect_first, /*collect=*/false, 0, &scan);
    if (scan.valid_bytes < kSegmentHeaderBytes) {
      // Header never made it to disk: the file holds nothing recoverable.
      std::filesystem::remove(path, ec);
      drop_rest = true;
      continue;
    }
    if (oldest_sequence_ == 0 && scan.last_sequence != 0) {
      oldest_sequence_ = scan.first_sequence;
    }
    if (scan.last_sequence != 0) last_valid = scan.last_sequence;
    active_path_ = path;
    active_first_sequence_ = scan.first_sequence;
    active_bytes_ = scan.valid_bytes;
    if (!clean) {
      // Truncate the torn/corrupt tail away so the writer resumes on a
      // fully valid prefix.
      std::filesystem::resize_file(path, scan.valid_bytes, ec);
      if (ec) return false;
      drop_rest = true;
      continue;
    }
    expect_first = scan.last_sequence == 0 ? scan.first_sequence
                                           : scan.last_sequence + 1;
  }
  last_sequence_ = std::max(last_valid, last_sequence_);
  durable_sequence_ = appended_sequence_ = last_sequence_;
  if (active_path_.empty()) {
    if (!CreateSegmentLocked(last_sequence_ + 1)) return false;
  }
  return OpenSegmentForAppend(active_path_, active_bytes_);
}

bool Oplog::CreateSegmentLocked(std::uint64_t first_sequence) {
  const std::string path =
      options_.dir + "/" + OplogSegmentFileName(first_sequence);
  std::uint8_t header[kSegmentHeaderBytes];
  std::memcpy(header, kOplogMagic, 8);
  PutLe64(header + 8, first_sequence);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (!WriteAllFd(fd, header, sizeof header) || !FsyncFdQuiet(fd)) {
    ::close(fd);
    return false;
  }
  ::close(fd);
  if (!FsyncDirQuiet(options_.dir)) return false;
  active_path_ = path;
  active_first_sequence_ = first_sequence;
  active_bytes_ = kSegmentHeaderBytes;
  return true;
}

bool Oplog::OpenSegmentForAppend(const std::string& path,
                                 std::uint64_t size) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd_ < 0) return false;
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool Oplog::RotateLocked() {
  if (Crash(OplogPhase::kBeforeRotate)) return false;
  // Seal the active segment: everything in it must be durable before the
  // successor becomes visible, so replay never finds a hole between
  // segments.
  if (!FsyncFdQuiet(fd_)) return false;
  durable_sequence_ = appended_sequence_;
  const std::uint64_t next_first = last_sequence_ + 1;
  const std::string path =
      options_.dir + "/" + OplogSegmentFileName(next_first);
  const std::string tmp = path + kTempSuffix;
  std::uint8_t header[kSegmentHeaderBytes];
  std::memcpy(header, kOplogMagic, 8);
  PutLe64(header + 8, next_first);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (!WriteAllFd(fd, header, sizeof header) || !FsyncFdQuiet(fd)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (Crash(OplogPhase::kAfterRotateTemp)) return false;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (Crash(OplogPhase::kAfterRotateRename)) return false;
  if (!FsyncDirQuiet(options_.dir)) return false;
  if (!OpenSegmentForAppend(path, kSegmentHeaderBytes)) return false;
  active_path_ = path;
  active_first_sequence_ = next_first;
  active_bytes_ = kSegmentHeaderBytes;
  return true;
}

std::uint64_t Oplog::Append(std::span<const std::uint8_t> payload,
                            std::uint64_t sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_) return 0;
  if (payload.size() > kMaxRecordPayload) return 0;
  if (!Enabled()) {
    const std::uint64_t seq =
        sequence != 0 ? sequence : last_sequence_ + 1;
    if (seq <= last_sequence_) return 0;
    last_sequence_ = appended_sequence_ = durable_sequence_ = seq;
    appends_.fetch_add(1, std::memory_order_relaxed);
    return seq;
  }
  // Sequences in a durable log must stay dense: replay validates
  // record-to-record continuity, so a caller with a gap (a replica that
  // just installed a snapshot) must Reset() instead.
  if (sequence != 0 && sequence != last_sequence_ + 1) return 0;
  const std::uint64_t seq = last_sequence_ + 1;
  if (fd_ < 0) return 0;
  if (active_bytes_ >= options_.segment_bytes &&
      active_bytes_ > kSegmentHeaderBytes) {
    if (!RotateLocked()) return 0;
  }
  // One buffer, one write(2): a concurrent ReadRange never observes a
  // record split across writes (a partially visible record fails its CRC
  // and just ends the reader's batch at the tail).
  std::vector<std::uint8_t> record(kRecordHeaderBytes + payload.size());
  PutLe32(record.data(), static_cast<std::uint32_t>(payload.size()));
  PutLe32(record.data() + 4, RecordCrc(seq, payload));
  PutLe64(record.data() + 8, seq);
  std::memcpy(record.data() + kRecordHeaderBytes, payload.data(),
              payload.size());
  if (!WriteAllFd(fd_, record.data(), record.size())) return 0;
  active_bytes_ += record.size();
  last_sequence_ = seq;
  appended_sequence_ = seq;
  if (oldest_sequence_ == 0) oldest_sequence_ = seq;
  appends_.fetch_add(1, std::memory_order_relaxed);
  if (Crash(OplogPhase::kAfterRecordWrite)) return 0;
  return seq;
}

bool Oplog::Sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (crashed_) return false;
  if (!Enabled()) return true;
  if (durable_sequence_ >= appended_sequence_) return true;  // Covered.
  // Group commit: one fsync covers everything appended before it started.
  // Appends that land while it runs are not covered (`covers` is latched
  // under the lock) and trigger their own.
  const std::uint64_t covers = appended_sequence_;
  const int fd = fd_;
  lock.unlock();
  const bool ok = FsyncFdQuiet(fd);
  lock.lock();
  if (!ok) return false;
  fsync_batches_.fetch_add(1, std::memory_order_relaxed);
  if (covers > durable_sequence_) durable_sequence_ = covers;
  if (Crash(OplogPhase::kAfterSync)) return false;
  return true;
}

bool Oplog::Reset(std::uint64_t next_sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!Enabled()) {
    last_sequence_ = next_sequence > 0 ? next_sequence - 1 : 0;
    durable_sequence_ = appended_sequence_ = last_sequence_;
    return true;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::error_code ec;
  for (const auto& [seq, path] : FindOplogSegments(options_.dir)) {
    std::filesystem::remove(path, ec);
  }
  last_sequence_ = next_sequence > 0 ? next_sequence - 1 : 0;
  durable_sequence_ = appended_sequence_ = last_sequence_;
  oldest_sequence_ = 0;
  if (!CreateSegmentLocked(last_sequence_ + 1)) return false;
  return OpenSegmentForAppend(active_path_, active_bytes_);
}

std::size_t Oplog::TruncateThrough(std::uint64_t sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!Enabled()) return 0;
  const auto segments = FindOplogSegments(options_.dir);
  std::size_t removed = 0;
  std::error_code ec;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [first_seq, path] = segments[i];
    if (first_seq == active_first_sequence_) break;  // Keep the active one.
    // A sealed segment's records end right before its successor's first
    // sequence; delete it only when every one of them is covered.
    const std::uint64_t next_first = i + 1 < segments.size()
                                         ? segments[i + 1].first
                                         : active_first_sequence_;
    if (next_first == 0 || next_first - 1 > sequence) break;
    std::filesystem::remove(path, ec);
    if (ec) break;
    ++removed;
    oldest_sequence_ = next_first;
  }
  return removed;
}

std::size_t Oplog::QuarantineTail(std::uint64_t first_quarantined,
                                  std::string* out_path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!Enabled() || first_quarantined == 0) return 0;
  if (last_sequence_ < first_quarantined) return 0;
  // Collect the divergent records. ScanSegment collects strictly-greater
  // sequences, so ask from the boundary's predecessor.
  std::vector<OplogRecord> records;
  for (const auto& [first_seq, path] : FindOplogSegments(options_.dir)) {
    SegmentScan scan;
    ScanSegment(path, 0, /*collect=*/true, first_quarantined - 1, &scan);
    for (OplogRecord& record : scan.records) {
      records.push_back(std::move(record));
    }
    if (scan.corrupt_tail) break;
  }
  if (records.empty()) return 0;
  const std::string qdir = options_.dir + "/quarantine";
  std::error_code ec;
  std::filesystem::create_directories(qdir, ec);
  if (ec) return static_cast<std::size_t>(-1);
  char name[64];
  std::snprintf(name, sizeof name, "divergent-%06llu.log",
                static_cast<unsigned long long>(first_quarantined));
  const std::string path = qdir + "/" + name;
  if (out_path != nullptr) *out_path = path;
  if (std::filesystem::exists(path, ec)) return records.size();
  // Same temp/fsync/rename/dir-fsync discipline as segment rotation, so a
  // crash mid-quarantine leaves either no file or a complete one.
  const std::string tmp = path + kTempSuffix;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return static_cast<std::size_t>(-1);
  std::uint8_t header[kSegmentHeaderBytes];
  std::memcpy(header, kOplogMagic, 8);
  PutLe64(header + 8, records.front().sequence);
  bool ok = WriteAllFd(fd, header, sizeof header);
  for (const OplogRecord& record : records) {
    if (!ok) break;
    std::uint8_t record_header[kRecordHeaderBytes];
    PutLe32(record_header,
            static_cast<std::uint32_t>(record.payload.size()));
    PutLe32(record_header + 4, RecordCrc(record.sequence, record.payload));
    PutLe64(record_header + 8, record.sequence);
    ok = WriteAllFd(fd, record_header, sizeof record_header) &&
         WriteAllFd(fd, record.payload.data(), record.payload.size());
  }
  ok = ok && FsyncFdQuiet(fd);
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return static_cast<std::size_t>(-1);
  }
  if (!FsyncDirQuiet(qdir)) return static_cast<std::size_t>(-1);
  return records.size();
}

void Oplog::ReadRange(std::uint64_t from_sequence, std::uint64_t max_bytes,
                      std::vector<OplogRecord>* out, bool* truncated) const {
  *truncated = false;
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!Enabled()) return;
    // The caller wants records starting at from_sequence + 1. If the
    // oldest retained record is newer than that, history was truncated
    // away and the caller must fall back to a snapshot transfer.
    if (oldest_sequence_ != 0 && from_sequence + 1 < oldest_sequence_ &&
        from_sequence < last_sequence_) {
      *truncated = true;
      return;
    }
    segments = FindOplogSegments(options_.dir);
  }
  // Per-record cost charged against max_bytes: payload plus the FETCH_OPLOG
  // wire envelope (sequence + crc + length prefix, rounded up), so a
  // frame-sized budget yields a chunk that encodes within one frame.
  constexpr std::uint64_t kRecordWireOverhead = 32;
  std::uint64_t used = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Skip segments that end at or before from_sequence: a sealed
    // segment's records stop right before its successor's first sequence.
    if (i + 1 < segments.size() &&
        segments[i + 1].first <= from_sequence + 1) {
      continue;
    }
    SegmentScan scan;
    ScanSegment(segments[i].second, 0, /*collect=*/true, from_sequence,
                &scan);
    for (OplogRecord& record : scan.records) {
      const std::uint64_t cost = record.payload.size() + kRecordWireOverhead;
      if (max_bytes != 0 && !out->empty() && used + cost > max_bytes) {
        return;  // Budget reached; never return an empty batch early.
      }
      used += cost;
      out->push_back(std::move(record));
    }
    if (scan.corrupt_tail) break;  // Tail in flux (or damaged): stop here.
  }
}

std::uint64_t Oplog::LastSequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_sequence_;
}

std::uint64_t Oplog::OldestSequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return oldest_sequence_;
}

std::uint64_t Oplog::DurableSequence() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return durable_sequence_;
}

void Oplog::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (!crashed_) FsyncFdQuiet(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace kspin::server
