// Byte sequences whose fill stays virtual.
//
// A Bytes value is a short list of chunks, each either a slice of a shared,
// immutable block of real bytes or a fill run (n copies of one byte). Page
// payloads and structure pads are runs from the serializer to the parser:
// TCP segmentation, stripe cutting, packets, receive queues and reassembly
// slice and concatenate chunks instead of copying bytes, as the kernel moves
// sk_buff page fragments by reference (DESIGN.md §12.8).
//
// A value holding one real chunk keeps it inline, so it costs what a shared
// payload costs: one block allocation, no chunk vector. Copies share blocks.
// A block is never written while shared: every mutable accessor first gives
// the value a block of its own (copy-on-write). Only readers that need flat
// real bytes — the mutable accessors, view(), copy(), take() — expand runs,
// and every run byte they expand is counted by payload_bytes_materialized().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"

namespace dvemig {

using Buffer = std::vector<std::uint8_t>;

/// Fill-run bytes expanded into real bytes since the process began.
std::uint64_t payload_bytes_materialized();

/// Bytes summed by Bytes::sum() since the process began (a memo hit adds
/// nothing): with every copy reusing the memo, this equals the payload bytes
/// created.
std::uint64_t payload_bytes_summed();

class Bytes {
 public:
  Bytes() = default;
  Bytes(Buffer b);  // NOLINT(google-explicit-constructor)
  // Inline: a packet's payload is moved several times per link hop.
  Bytes(const Bytes& o)
      : one_(o.one_), many_(o.many_ ? std::make_unique<Many>(*o.many_) : nullptr) {}
  Bytes& operator=(const Bytes& o) {
    if (this != &o) *this = Bytes(o);
    return *this;
  }
  /// A moved-from value is empty.
  Bytes(Bytes&& o) noexcept : one_(std::exchange(o.one_, Chunk{})), many_(std::move(o.many_)) {}
  Bytes& operator=(Bytes&& o) noexcept {
    one_ = std::exchange(o.one_, Chunk{});
    many_ = std::move(o.many_);
    return *this;
  }
  ~Bytes() = default;

  std::size_t size() const { return many_ ? many_->size : one_.len; }
  bool empty() const { return size() == 0; }
  /// Introspection for tests: how many chunks the value holds.
  std::size_t chunk_count() const { return chunks().size(); }

  /// Calls `real(span)` or `run(n, fill)` for each chunk, in order.
  template <class Real, class Run>
  void for_each_chunk(Real&& real, Run&& run) const {
    for (const Chunk& c : chunks()) {
      if (c.block) {
        real(std::span<const std::uint8_t>(c.data(), c.len));
      } else {
        run(std::size_t{c.len}, static_cast<std::uint8_t>(c.off));
      }
    }
  }

  /// Append `o`'s chunks (sharing its blocks), merging a slice that continues
  /// the last chunk's slice of the same block and a run that continues a run
  /// of the same byte.
  void append(const Bytes& o);
  void append(Bytes&& o) {
    if (empty()) {
      *this = std::move(o);
    } else {
      append(o);
    }
  }
  void append_run(std::size_t n, std::uint8_t fill);
  /// Bytes [off, off + n), sharing this value's blocks.
  Bytes slice(std::size_t off, std::size_t n) const;
  /// Drop the first `n` bytes.
  void remove_prefix(std::size_t n);

  std::uint8_t operator[](std::size_t i) const;
  /// Mutable access: expands to one block of its own first (copy-on-write).
  std::uint8_t& operator[](std::size_t i) {
    DVEMIG_EXPECTS(i < size());
    return own()[i];
  }
  void push_back(std::uint8_t b);

  /// The bytes as one flat span; a value of several chunks is expanded into
  /// one block first (its logical bytes, and so its memo, stay the same).
  std::span<const std::uint8_t> view() const;
  /// Deep copy into an owned Buffer.
  Buffer copy() const;
  /// Take the bytes out as a Buffer, leaving this empty: moves when this is
  /// the sole owner of one whole block, copies otherwise.
  Buffer take();

  /// `net::checksum_accumulate` over the bytes, as if they began at an even
  /// offset of the checksummed stream; a run adds in O(1). Memoized for a
  /// whole block (in the block, so every copy shares it) and for a value of
  /// several chunks (copies keep it); every mutation clears it. A slice of
  /// part of one block is summed afresh. A mutable byte reference held
  /// across a sum is unsupported.
  std::uint32_t sum() const {
    if (many_) {
      if (many_->sum == kNoSum) many_->sum = sum_chunks();
      return many_->sum;
    }
    if (one_.len == 0) return 0;
    if (!whole_block()) return sum_chunks();
    if (one_.block->sum == kNoSum) one_.block->sum = sum_chunks();
    return one_.block->sum;
  }

  /// Introspection for tests: do two values' first chunks alias one block?
  bool shares_storage_with(const Bytes& o) const;

  /// Equal logical bytes, however either side is chunked.
  bool operator==(const Bytes& o) const;

 private:
  friend class BinaryReader;

  static constexpr std::uint32_t kNoSum = 0xFFFFFFFF;  // sums fold to 16 bits

  /// Real bytes shared by every chunk that slices them. `sum` memoizes the
  /// whole block's sum; the bytes change only while one reference is left.
  struct Block {
    explicit Block(Buffer b) : bytes(std::move(b)) {}
    Buffer bytes;
    std::uint32_t refs{1};
    std::uint32_t sum{kNoSum};
  };

  /// A counted reference to a Block; null for a fill run. Hand-rolled, not a
  /// std::shared_ptr, so that a value stays 24 bytes: packets move by value
  /// through several sinks per link hop, and 24 more bytes of Packet cost
  /// 15 % of conn_scale's set-up time when measured.
  class BlockRef {
   public:
    BlockRef() = default;
    explicit BlockRef(Buffer b) : p_(new Block(std::move(b))) {}
    BlockRef(const BlockRef& o) : p_(o.p_) {
      if (p_ != nullptr) ++p_->refs;
    }
    BlockRef(BlockRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
    BlockRef& operator=(BlockRef o) noexcept {
      std::swap(p_, o.p_);
      return *this;
    }
    ~BlockRef() {
      if (p_ != nullptr && --p_->refs == 0) delete p_;
    }
    Block* operator->() const { return p_; }
    explicit operator bool() const { return p_ != nullptr; }
    bool operator==(const BlockRef& o) const { return p_ == o.p_; }

   private:
    Block* p_{nullptr};
  };

  struct Chunk {
    BlockRef block;
    std::uint32_t off{0};  // real: start in the block; run: the fill byte
    std::uint32_t len{0};
    const std::uint8_t* data() const { return block->bytes.data() + off; }
  };

  /// Two or more chunks, their total length and the memo of their sum.
  struct Many {
    std::vector<Chunk> chunks;
    std::size_t size{0};
    std::uint32_t sum{kNoSum};
  };

  /// One chunk lives inline in one_; two or more in many_ (one_ empty).
  std::span<const Chunk> chunks() const {
    if (many_) return many_->chunks;
    return {&one_, one_.len == 0 ? 0u : 1u};
  }
  void push(Chunk c);
  /// The logical bytes, expanded into a fresh Buffer.
  Buffer flat() const;
  /// Make this one whole block held by no one else; clears the memo.
  Buffer& own();
  bool whole_block() const {
    return !many_ && one_.block && one_.off == 0 && one_.len == one_.block->bytes.size();
  }
  bool sole_whole_block() const { return whole_block() && one_.block->refs == 1; }
  /// checksum_accumulate over the chunks (no memo).
  std::uint32_t sum_chunks() const;

  // Mutable so that a const flat view() can re-chunk the same logical bytes.
  mutable Chunk one_;
  mutable std::unique_ptr<Many> many_;
};

namespace detail {
/// Add `n` to payload_bytes_materialized().
void count_materialized(std::size_t n);
}  // namespace detail

}  // namespace dvemig
