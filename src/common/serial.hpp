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
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/bytes.hpp"

namespace dvemig {

/// Appends fixed-width little-endian values to a growable buffer. Fill
/// (`fill`, `Put::pad`) is kept as runs beside the real bytes and leaves as
/// runs of the Bytes that take_bytes() returns; buffer(), span_from() and
/// take(), which hand out flat bytes, expand them.
class BinaryWriter {
 public:
  BinaryWriter() = default;

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
  /// `data`'s real chunks copied, its runs kept as runs.
  void append(const Bytes& data);

  /// `n` copies of `v` (structure padding whose size, not content, is
  /// measured), kept as a run.
  void fill(std::size_t n, std::uint8_t v);
  /// `n` real copies of `v` (a message body its reader takes as bytes).
  void repeat(std::size_t n, std::uint8_t v);

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

  std::size_t size() const { return buf_.size() + run_bytes_; }
  /// Everything written, flat: expands the runs in place.
  const Buffer& buffer() {
    expand();
    return buf_;
  }
  /// Everything written, flat (runs expanded); leaves the writer empty.
  Buffer take() {
    expand();
    return std::move(buf_);
  }
  /// Everything written, runs kept; leaves the writer empty.
  Bytes take_bytes();

  /// Pre-size the real bytes (fill runs take no space here).
  void reserve(std::size_t n) { buf_.reserve(n); }

  /// Drop the contents but keep the capacity, so one writer can be reused
  /// across precopy rounds without re-paying the allocation.
  void clear() {
    buf_.clear();
    runs_.clear();
    run_bytes_ = 0;
  }

  /// Current write position — take a mark before a section, then `patch_*` a
  /// placeholder at it or `truncate_to` it to roll the section back.
  std::size_t mark() const { return size(); }

  /// Discard everything written at or after `pos` (e.g. a delta section that
  /// hashed identical to the previous round and need not go on the wire).
  void truncate_to(std::size_t pos);

  /// Overwrite previously written bytes in place — size prefixes and flag
  /// bytes are written blind up front and back-patched once known, so records
  /// serialize straight into the final buffer with no intermediate copy. The
  /// patched bytes must be real bytes, not fill.
  void patch_u8(std::uint8_t v, std::size_t pos) {
    buf_[real_at(pos, 1)] = v;
  }
  void patch_u32(std::uint32_t v, std::size_t pos) { patch_le(v, pos); }
  void patch_u64(std::uint64_t v, std::size_t pos) { patch_le(v, pos); }

  /// View of the bytes written since `pos`, flat: expands the runs in place.
  /// Aliases the backing buffer: invalidated by any subsequent write.
  std::span<const std::uint8_t> span_from(std::size_t pos) {
    DVEMIG_EXPECTS(pos <= size());
    expand();
    return std::span<const std::uint8_t>(buf_).subspan(pos);
  }

  /// FNV-1a over the canonical form of the bytes written since `pos`: real
  /// bytes as themselves, each run as its u64 length and fill byte. Equal
  /// output of one field list hashes equal however long its runs are, and
  /// no run is expanded.
  std::uint64_t hash_from(std::size_t pos) const;

 private:
  /// A run of `len` fill bytes at logical position `at`, which sits at
  /// `real` in buf_ (so `at - real` fill bytes come before it).
  struct Run {
    std::size_t at{0};
    std::size_t real{0};
    std::size_t len{0};
    std::uint8_t fill{0};
  };

  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <typename T>
  void patch_le(T v, std::size_t pos) {
    const std::size_t at = real_at(pos, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  /// The first run that ends after logical position `pos`.
  std::vector<Run>::const_iterator run_after(std::size_t pos) const;
  /// Index into buf_ of the `n` real bytes at logical position `pos`.
  std::size_t real_at(std::size_t pos, std::size_t n) const;
  /// Write the runs out into buf_.
  void expand();

  Buffer buf_;              // the real bytes, runs left out
  std::vector<Run> runs_;   // ascending, never adjacent with one fill
  std::size_t run_bytes_{0};
};

/// Reads values written by BinaryWriter, from flat bytes or across the chunks
/// of a Bytes value. Out-of-bounds reads are contract violations: a
/// checkpoint image that underflows is corrupt and continuing would fabricate
/// state.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data)
      : cur_(data.data()), avail_(data.size()), size_(data.size()) {}
  explicit BinaryReader(const Buffer& data)
      : BinaryReader(std::span<const std::uint8_t>(data)) {}
  /// Reads `data` in place; it must outlive the reader.
  explicit BinaryReader(const Bytes& data);
  explicit BinaryReader(Bytes&&) = delete;

  std::uint8_t u8() {
    DVEMIG_EXPECTS(pos_ + 1 <= size_);
    return next_byte();
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
    const auto b = span(u32());
    return Buffer(b.begin(), b.end());
  }

  std::string str() {
    const auto b = span(u32());
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// View of the next `n` bytes; advances the cursor. Inside one real chunk
  /// it aliases the reader's source, which it must not outlive; bytes that
  /// cross chunks or cover fill are first copied into storage the reader
  /// keeps (and the fill counted as materialized).
  std::span<const std::uint8_t> span(std::size_t n);

  /// The next `n` bytes as a value of their own, sharing the source's blocks
  /// (fill stays runs); advances the cursor. From flat bytes, a copy.
  Bytes bytes(std::size_t n);

  /// Skip `n` bytes (e.g. page payloads whose content the simulator ignores);
  /// a run is passed over without being expanded.
  void skip(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T read_le() {
    DVEMIG_EXPECTS(pos_ + sizeof(T) <= size_);
    T v{};
    if (cur_ != nullptr && avail_ >= sizeof(T)) {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<T>(cur_[i]) << (8 * i));
      }
      cur_ += sizeof(T);
      avail_ -= sizeof(T);
      pos_ += sizeof(T);
      return v;
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(next_byte()) << (8 * i));
    }
    return v;
  }

  std::uint8_t next_byte() {
    if (avail_ == 0) load_next();
    avail_ -= 1;
    pos_ += 1;
    return cur_ != nullptr ? *cur_++ : fill_;
  }
  /// Make chunk `k` of src_ the current one.
  void load(std::size_t k);
  void load_next() { load(chunk_ + 1); }

  // The current chunk: real bytes at cur_, or (cur_ null) a run of fill_.
  const std::uint8_t* cur_{nullptr};
  std::size_t avail_{0};  // bytes left in the current chunk
  std::uint8_t fill_{0};
  const Bytes* src_{nullptr};  // null when reading flat bytes
  std::size_t chunk_{0};       // index of the current chunk in src_
  std::size_t pos_{0};
  std::size_t size_{0};
  std::vector<Buffer> copies_;  // flat copies span() handed out
};

/// Cuts every complete message (a u32 length, then that many bytes) off the
/// front of a received byte stream, in order, and hands each body, sharing
/// the stream's blocks, to `on_msg(Bytes&&)`. The incomplete tail stays in
/// `stream`. A length above `max_len` is refused as soon as it arrives.
/// Returns false if it stopped early: at such a length (the stream then
/// still starts with it), or when `on_msg` returned false, which it may do
/// after resetting `stream`. Any other `on_msg` must leave `stream` alone.
template <class OnMsg>
bool cut_messages(Bytes& stream, OnMsg&& on_msg,
                  std::uint32_t max_len = std::numeric_limits<std::uint32_t>::max()) {
  BinaryReader in(stream);
  std::size_t cut = 0;     // the whole messages handed on
  std::uint32_t len = 0;   // the last length read
  while (in.remaining() >= 4 && (len = in.u32()) <= max_len && in.remaining() >= len) {
    if (!on_msg(in.bytes(len))) return false;
    cut = in.position();
  }
  stream.remove_prefix(cut);
  return len <= max_len;
}

// ------------------------------------------------------------ field lists
//
// Every wire record states its format once, as a field list:
//
//   template <class Io, class Self>
//   static void fields(Io& io, Self& s) {
//     io.u32(s.id);
//     io.str(s.name);
//     io.seq(s.items);  // u32 count, then each item's own field list
//   }
//
// Put runs the list over a `const Self&` and appends to a BinaryWriter; Get
// runs it over a `Self&` and fills it from a BinaryReader; Size runs it like
// Put but only counts the bytes Put would append. All three are plain
// classes whose members inline to the BinaryWriter/BinaryReader calls a
// hand-written writer/reader pair would make, so one record cannot be written
// one way and read another. The encoding:
//  - integers are fixed-width little-endian; a member of another integral or
//    enum type (a size_t, an IpProto) converts with static_cast;
//  - `boolean` is one byte, written 0/1 and read as != 0;
//  - `pad(n, fill)` is n fill bytes on write (one run, never expanded) and n
//    skipped bytes on read;
//  - `seq` is a u32 count, then the elements; a map's keys go out ascending
//    and must come back strictly ascending; a read nests at most
//    Get::kMaxSeqDepth sequences.
// Decoding and re-encoding an accepted input gives back the same bytes unless
// a bool byte is not 0/1 or a pad byte is not its fill.

class Put {
 public:
  explicit Put(BinaryWriter& w) : w_(w) {}

  template <class T> void u8(const T& v) { w_.u8(static_cast<std::uint8_t>(v)); }
  template <class T> void u16(const T& v) { w_.u16(static_cast<std::uint16_t>(v)); }
  template <class T> void u32(const T& v) { w_.u32(static_cast<std::uint32_t>(v)); }
  template <class T> void u64(const T& v) { w_.u64(static_cast<std::uint64_t>(v)); }
  template <class T> void i32(const T& v) { w_.i32(static_cast<std::int32_t>(v)); }
  template <class T> void i64(const T& v) { w_.i64(static_cast<std::int64_t>(v)); }
  void f64(double v) { w_.f64(v); }
  void boolean(bool v) { w_.u8(v ? 1 : 0); }
  void str(const std::string& s) { w_.str(s); }
  void blob(const Buffer& b) { w_.blob(b); }
  void blob(const Bytes& b) {
    w_.u32(static_cast<std::uint32_t>(b.size()));
    w_.append(b);
  }
  void pad(std::size_t n, std::uint8_t fill) { w_.fill(n, fill); }

  /// A nested record: its own field list, inline.
  template <class R> void rec(const R& r) { R::fields(*this, r); }

  template <class C, class Elem> void seq(const C& c, const Elem& elem) {
    w_.u32(static_cast<std::uint32_t>(c.size()));
    for (const auto& x : c) elem(*this, x);
  }
  template <class C> void seq(const C& c) {
    seq(c, [](Put& io, const auto& x) { io.rec(x); });
  }

 private:
  BinaryWriter& w_;
};

/// Put's counting twin: `size_of(rec)` is the exact length `put(w, rec)`
/// appends, and `bytes() - fill_bytes()` bounds the real bytes among them,
/// so a writer can be sized once before a multi-megabyte record (a page
/// delta) instead of growing by doubling.
class Size {
 public:
  std::size_t bytes() const { return n_; }
  /// The bytes that `pad` adds, which a writer keeps as runs.
  std::size_t fill_bytes() const { return fill_; }

  template <class T> void u8(const T&) { n_ += 1; }
  template <class T> void u16(const T&) { n_ += 2; }
  template <class T> void u32(const T&) { n_ += 4; }
  template <class T> void u64(const T&) { n_ += 8; }
  template <class T> void i32(const T&) { n_ += 4; }
  template <class T> void i64(const T&) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void boolean(bool) { n_ += 1; }
  void str(const std::string& s) { n_ += 4 + s.size(); }
  void blob(const Buffer& b) { n_ += 4 + b.size(); }
  void blob(const Bytes& b) { n_ += 4 + b.size(); }
  void pad(std::size_t n, std::uint8_t /*fill*/) {
    n_ += n;
    fill_ += n;
  }

  template <class R> void rec(const R& r) { R::fields(*this, r); }

  template <class C, class Elem> void seq(const C& c, const Elem& elem) {
    n_ += 4;
    for (const auto& x : c) elem(*this, x);
  }
  template <class C> void seq(const C& c) {
    seq(c, [](Size& io, const auto& x) { io.rec(x); });
  }

 private:
  std::size_t n_{0};
  std::size_t fill_{0};
};

class Get {
 public:
  /// Reading past the data is a contract violation, as with BinaryReader: a
  /// checkpoint image that underflows is corrupt.
  explicit Get(BinaryReader& r) : r_(r) {}
  /// For untrusted payloads: a shortfall, or map keys out of order, only
  /// clears ok() and stops all further reads.
  static Get checked(BinaryReader& r) {
    Get io(r);
    io.strict_ = false;
    return io;
  }

  bool ok() const { return ok_; }

  template <class T> void u8(T& v) { if (fits(1)) v = static_cast<T>(r_.u8()); }
  template <class T> void u16(T& v) { if (fits(2)) v = static_cast<T>(r_.u16()); }
  template <class T> void u32(T& v) { if (fits(4)) v = static_cast<T>(r_.u32()); }
  template <class T> void u64(T& v) { if (fits(8)) v = static_cast<T>(r_.u64()); }
  template <class T> void i32(T& v) { if (fits(4)) v = static_cast<T>(r_.i32()); }
  template <class T> void i64(T& v) { if (fits(8)) v = static_cast<T>(r_.i64()); }
  void f64(double& v) { if (fits(8)) v = r_.f64(); }
  void boolean(bool& v) { if (fits(1)) v = r_.u8() != 0; }
  void str(std::string& s) {
    const auto b = sized();
    s.assign(reinterpret_cast<const char*>(b.data()), b.size());
  }
  void blob(Buffer& b) {
    const auto v = sized();
    b.assign(v.begin(), v.end());
  }
  /// The blob's bytes shared with the reader's source, runs kept.
  void blob(Bytes& b) {
    std::uint32_t n = 0;
    u32(n);
    b = fits(n) ? r_.bytes(n) : Bytes{};
  }
  /// Skipped, a run without being expanded.
  void pad(std::size_t n, std::uint8_t /*fill*/) { if (fits(n)) r_.skip(n); }

  template <class R> void rec(R& r) { R::fields(*this, r); }

  /// One bound check on the count (every element is at least one byte), so a
  /// hostile count cannot size the reservation; and at most kMaxSeqDepth
  /// sequences open at once, so a hostile nesting of a recursive record (a
  /// listener image's accept-queue children) cannot exhaust the stack.
  template <class C, class Elem> void seq(C& c, const Elem& elem) {
    std::uint32_t n = 0;
    u32(n);
    c.clear();
    if (n > r_.remaining() || depth_ == kMaxSeqDepth) return fail();
    ++depth_;
    constexpr bool is_map = requires { typename C::mapped_type; };
    if constexpr (!is_map) c.reserve(n);
    for (std::uint32_t i = 0; i < n && ok_; ++i) {
      if constexpr (is_map) {
        std::pair<typename C::key_type, typename C::mapped_type> x{};
        elem(*this, x);
        if (!c.empty() && !(c.rbegin()->first < x.first)) {
          fail();
          break;
        }
        c.emplace_hint(c.end(), std::move(x));
      } else {
        typename C::value_type x{};
        elem(*this, x);
        c.push_back(std::move(x));
      }
    }
    --depth_;
  }
  template <class C> void seq(C& c) {
    seq(c, [](Get& io, auto& x) { io.rec(x); });
  }

 private:
  bool fits(std::size_t n) {
    if (ok_ && n <= r_.remaining()) return true;
    fail();
    return false;
  }
  void fail() {
    DVEMIG_EXPECTS(!strict_);  // strict reads never run past their data
    ok_ = false;
  }
  std::span<const std::uint8_t> sized() {
    std::uint32_t n = 0;
    u32(n);
    return fits(n) ? r_.span(n) : std::span<const std::uint8_t>{};
  }

  /// Deeper than any record nests (a listener image's child queues are 2).
  static constexpr int kMaxSeqDepth = 8;

  BinaryReader& r_;
  bool strict_{true};
  bool ok_{true};
  int depth_{0};
};

/// Append `rec`'s fields to `w`.
template <class R>
void put(BinaryWriter& w, const R& rec) {
  Put io(w);
  io.rec(rec);
}

/// The number of bytes `put(w, rec)` appends.
template <class R>
std::size_t size_of(const R& rec) {
  Size io;
  io.rec(rec);
  return io.bytes();
}

/// Fill `rec` from `r`; reading past the data is a contract violation.
template <class R>
void get(BinaryReader& r, R& rec) {
  Get io(r);
  io.rec(rec);
}
template <class R>
R get(BinaryReader& r) {
  R rec;
  get(r, rec);
  return rec;
}

/// Decode an untrusted payload: `rec` from the rest of `r`, which must hold
/// exactly its fields. False (with `rec` unspecified) on a short or overlong
/// payload; never aborts.
template <class R>
bool get_payload(BinaryReader& r, R& rec) {
  Get io = Get::checked(r);
  io.rec(rec);
  return io.ok() && r.at_end();
}

/// FNV-1a content hash, used by the incremental socket tracker to detect whether a
/// serialized field block changed since the previous precopy round.
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

}  // namespace dvemig
