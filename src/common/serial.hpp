// Binary serialization used for checkpoint images, socket state dumps and
// middleware messages.
//
// The byte counts these writers produce are *measured* quantities in the
// experiments (Fig. 5c reports bytes transferred during the freeze phase), so the
// encoding is explicit and fixed-width little-endian — never `memcpy` of structs,
// whose padding would make sizes compiler-dependent.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/assert.hpp"

namespace dvemig {

using Buffer = std::vector<std::uint8_t>;

/// Appends fixed-width little-endian values to a growable buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  explicit BinaryWriter(Buffer buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }

  void bytes(std::span<const std::uint8_t> data);

  /// Length-prefixed byte blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  std::size_t size() const { return buf_.size(); }
  const Buffer& buffer() const { return buf_; }
  Buffer take() { return std::move(buf_); }

  /// Pre-size the backing buffer (the collective-subtraction path sizes the
  /// unified transfer buffer from the previous round so a freeze-phase dump
  /// never reallocates mid-serialization).
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Drop the contents but keep the capacity, so one writer can be reused
  /// across precopy rounds without re-paying the allocation.
  void clear() { buf_.clear(); }

  /// Current write position — take a mark before a section, then `patch_*` a
  /// placeholder at it or `truncate_to` it to roll the section back.
  std::size_t mark() const { return buf_.size(); }

  /// Discard everything written at or after `pos` (e.g. a delta section that
  /// hashed identical to the previous round and need not go on the wire).
  void truncate_to(std::size_t pos) {
    DVEMIG_EXPECTS(pos <= buf_.size());
    buf_.resize(pos);
  }

  /// Overwrite previously written bytes in place — size prefixes and flag
  /// bytes are written blind up front and back-patched once known, so records
  /// serialize straight into the final buffer with no intermediate copy.
  void patch_u8(std::uint8_t v, std::size_t pos) {
    DVEMIG_EXPECTS(pos + 1 <= buf_.size());
    buf_[pos] = v;
  }
  void patch_u32(std::uint32_t v, std::size_t pos) { patch_le(v, pos); }
  void patch_u64(std::uint64_t v, std::size_t pos) { patch_le(v, pos); }

  /// View of the bytes written since `pos` (for hashing a section in place).
  /// Aliases the backing buffer: invalidated by any subsequent write.
  std::span<const std::uint8_t> span_from(std::size_t pos) const {
    DVEMIG_EXPECTS(pos <= buf_.size());
    return std::span<const std::uint8_t>(buf_).subspan(pos);
  }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <typename T>
  void patch_le(T v, std::size_t pos) {
    DVEMIG_EXPECTS(pos + sizeof(T) <= buf_.size());
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  Buffer buf_;
};

/// Reads values written by BinaryWriter. Out-of-bounds reads are contract violations:
/// a checkpoint image that underflows is corrupt and continuing would fabricate state.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    DVEMIG_EXPECTS(pos_ + 1 <= data_.size());
    return data_[pos_++];
  }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(read_le<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  Buffer blob() {
    const std::uint32_t n = u32();
    DVEMIG_EXPECTS(pos_ + n <= data_.size());
    Buffer out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::string str() {
    const std::uint32_t n = u32();
    DVEMIG_EXPECTS(pos_ + n <= data_.size());
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// View of the next `n` bytes without copying; advances the cursor. The view
  /// aliases the reader's backing storage and must not outlive it.
  std::span<const std::uint8_t> span(std::size_t n) {
    DVEMIG_EXPECTS(pos_ + n <= data_.size());
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Skip `n` bytes (e.g. page payloads whose content the simulator ignores).
  void skip(std::size_t n) {
    DVEMIG_EXPECTS(pos_ + n <= data_.size());
    pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T read_le() {
    DVEMIG_EXPECTS(pos_ + sizeof(T) <= data_.size());
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

/// FNV-1a content hash, used by the incremental socket tracker to detect whether a
/// serialized field block changed since the previous precopy round.
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

}  // namespace dvemig
