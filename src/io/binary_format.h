// Low-level helpers for the versioned binary index format.
//
// Every artifact starts with an 8-byte magic tag and a uint32 version so a
// stale or foreign file fails fast with a clear error instead of producing
// a corrupt index. All integers are written in the host's native byte
// order (the format is a cache, not an interchange format).
//
// Hardening rules (see docs/persistence.md):
//  - every write checks the stream afterwards, so ENOSPC / EIO raise
//    SerializationError instead of silently truncating an artifact;
//  - every length field read from disk is untrusted: vectors and strings
//    are materialized incrementally, so a corrupt 2^60 length exhausts the
//    stream and throws instead of attempting a giant allocation.
#ifndef KSPIN_IO_BINARY_FORMAT_H_
#define KSPIN_IO_BINARY_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace kspin::io {

/// Thrown on magic/version mismatches, truncated or corrupt streams, and
/// failed writes (disk full, I/O error).
class SerializationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bytes materialized per step when reading an untrusted length field.
/// Small enough that a corrupt length cannot force a giant allocation,
/// large enough that honest multi-megabyte artifacts read in a few steps.
inline constexpr std::size_t kReadChunkBytes = std::size_t{1} << 20;

/// Checks `out` after a write; throws so ENOSPC is never swallowed.
inline void CheckWrite(std::ostream& out) {
  if (!out) {
    throw SerializationError("write failed (stream error, disk full?)");
  }
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  CheckWrite(out);
}

template <typename T>
T ReadPod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw SerializationError("truncated stream reading scalar");
  return value;
}

/// Length-prefixed pod array from any contiguous range (vector with any
/// allocator, FlatLists row span, ...). Byte-identical to the historical
/// WritePodVector encoding. T must have no padding bytes, so an artifact
/// never carries uninitialized memory and equal indexes write equal bytes.
template <typename T>
void WritePodSpan(std::ostream& out, std::span<const T> values) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::has_unique_object_representations_v<T>);
  WritePod<std::uint64_t>(out, values.size());
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
  CheckWrite(out);
}

template <typename T, typename Alloc>
void WritePodVector(std::ostream& out, const std::vector<T, Alloc>& values) {
  WritePodSpan<T>(out, values);
}

/// Reads a length-prefixed pod array into `Container` (any vector
/// instantiation — used to materialize directly into AlignedVector).
template <typename Container>
Container ReadPodVectorAs(std::istream& in) {
  using T = typename Container::value_type;
  static_assert(std::is_trivially_copyable_v<T>);
  const auto size = ReadPod<std::uint64_t>(in);
  // The length field is untrusted: grow incrementally so a corrupt huge
  // value runs the stream dry (throwing) long before memory does.
  const std::size_t chunk_elems =
      std::max<std::size_t>(1, kReadChunkBytes / sizeof(T));
  Container values;
  std::uint64_t got = 0;
  while (got < size) {
    const std::size_t step = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_elems, size - got));
    values.resize(static_cast<std::size_t>(got) + step);
    in.read(reinterpret_cast<char*>(values.data() + got),
            static_cast<std::streamsize>(step * sizeof(T)));
    if (!in) throw SerializationError("truncated stream reading vector");
    got += step;
  }
  return values;
}

template <typename T>
std::vector<T> ReadPodVector(std::istream& in) {
  return ReadPodVectorAs<std::vector<T>>(in);
}

inline void WriteString(std::ostream& out, const std::string& s) {
  WritePod<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
  CheckWrite(out);
}

inline std::string ReadString(std::istream& in) {
  const auto size = ReadPod<std::uint64_t>(in);
  std::string s;
  std::uint64_t got = 0;
  while (got < size) {
    const std::size_t step = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReadChunkBytes, size - got));
    s.resize(static_cast<std::size_t>(got) + step);
    in.read(s.data() + got, static_cast<std::streamsize>(step));
    if (!in) throw SerializationError("truncated stream reading string");
    got += step;
  }
  return s;
}

/// Writes the artifact header.
inline void WriteHeader(std::ostream& out, const char magic[8],
                        std::uint32_t version) {
  out.write(magic, 8);
  CheckWrite(out);
  WritePod(out, version);
}

/// Validates the artifact header; throws SerializationError on mismatch.
inline void CheckHeader(std::istream& in, const char magic[8],
                        std::uint32_t expected_version) {
  char read_magic[8] = {};
  in.read(read_magic, 8);
  if (!in || std::memcmp(read_magic, magic, 8) != 0) {
    throw SerializationError(std::string("bad magic; expected '") +
                             std::string(magic, 8) + "'");
  }
  const auto version = ReadPod<std::uint32_t>(in);
  if (version != expected_version) {
    throw SerializationError("unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(expected_version) + ")");
  }
}

}  // namespace kspin::io

#endif  // KSPIN_IO_BINARY_FORMAT_H_
