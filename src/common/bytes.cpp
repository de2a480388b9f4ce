#include "src/common/bytes.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/net/checksum.hpp"

namespace dvemig {

namespace {

std::uint64_t g_materialized = 0;
std::uint64_t g_summed = 0;

std::uint32_t swap16(std::uint32_t v) { return ((v & 0xFF) << 8) | (v >> 8); }

}  // namespace

namespace detail {
void count_materialized(std::size_t n) { g_materialized += n; }
}  // namespace detail

std::uint64_t payload_bytes_materialized() { return g_materialized; }
std::uint64_t payload_bytes_summed() { return g_summed; }

Bytes::Bytes(Buffer b) {
  if (b.empty()) return;
  DVEMIG_EXPECTS(b.size() <= std::numeric_limits<std::uint32_t>::max());
  const auto len = static_cast<std::uint32_t>(b.size());
  one_ = Chunk{BlockRef(std::move(b)), 0, len};
}

void Bytes::push(Chunk c) {
  if (c.len == 0) return;
  if (many_) {
    many_->size += c.len;
    many_->sum = kNoSum;
  }
  Chunk* last = many_ ? &many_->chunks.back() : (one_.len == 0 ? nullptr : &one_);
  if (last != nullptr && last->block == c.block &&
      std::uint64_t{last->len} + c.len <= std::numeric_limits<std::uint32_t>::max() &&
      (c.block ? last->off + last->len == c.off : last->off == c.off)) {
    last->len += c.len;
    return;
  }
  if (last == nullptr) {
    one_ = std::move(c);
    return;
  }
  if (!many_) {
    many_ = std::make_unique<Many>();
    many_->size = one_.len + c.len;
    many_->chunks.push_back(std::exchange(one_, Chunk{}));
  }
  many_->chunks.push_back(std::move(c));
}

void Bytes::append(const Bytes& o) {
  if (empty()) {
    *this = o;
    return;
  }
  if (&o == this) return append(Bytes(o));
  for (const Chunk& c : o.chunks()) push(c);
}

void Bytes::append_run(std::size_t n, std::uint8_t fill) {
  while (n > 0) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::size_t>(n, std::numeric_limits<std::uint32_t>::max()));
    push(Chunk{BlockRef{}, fill, len});
    n -= len;
  }
}

Bytes Bytes::slice(std::size_t off, std::size_t n) const {
  DVEMIG_EXPECTS(off <= size() && n <= size() - off);
  Bytes out;
  for (const Chunk& c : chunks()) {
    if (n == 0) break;
    if (off >= c.len) {
      off -= c.len;
      continue;
    }
    const auto take = static_cast<std::uint32_t>(std::min<std::size_t>(n, c.len - off));
    const auto at = static_cast<std::uint32_t>(off);
    out.push(Chunk{c.block, c.block ? c.off + at : c.off, take});
    n -= take;
    off = 0;
  }
  return out;
}

void Bytes::remove_prefix(std::size_t n) {
  DVEMIG_EXPECTS(n <= size());
  if (n == 0) return;
  if (n == size()) {
    *this = Bytes{};
    return;
  }
  const auto trim = [](Chunk& c, std::size_t k) {
    if (c.block) c.off += static_cast<std::uint32_t>(k);
    c.len -= static_cast<std::uint32_t>(k);
  };
  if (!many_) return trim(one_, n);
  many_->size -= n;
  many_->sum = kNoSum;
  auto& chunks = many_->chunks;
  std::size_t first = 0;
  while (n >= chunks[first].len) n -= chunks[first++].len;
  chunks.erase(chunks.begin(), chunks.begin() + static_cast<std::ptrdiff_t>(first));
  trim(chunks.front(), n);
  if (chunks.size() == 1) {
    one_ = std::move(chunks.front());
    many_.reset();
  }
}

std::uint8_t Bytes::operator[](std::size_t i) const {
  DVEMIG_EXPECTS(i < size());
  for (const Chunk& c : chunks()) {
    if (i < c.len) return c.block ? c.data()[i] : static_cast<std::uint8_t>(c.off);
    i -= c.len;
  }
  DVEMIG_UNREACHABLE("index past the chunks");
}

Buffer Bytes::flat() const {
  Buffer out;
  out.reserve(size());
  for_each_chunk(
      [&out](std::span<const std::uint8_t> real) { out.insert(out.end(), real.begin(), real.end()); },
      [&out](std::size_t n, std::uint8_t fill) {
        detail::count_materialized(n);
        out.insert(out.end(), n, fill);
      });
  return out;
}

Buffer& Bytes::own() {
  DVEMIG_EXPECTS(!empty());
  if (!sole_whole_block()) *this = Bytes(flat());
  one_.block->sum = kNoSum;
  return one_.block->bytes;
}

void Bytes::push_back(std::uint8_t b) {
  if (empty()) {
    *this = Bytes(Buffer{b});
    return;
  }
  own().push_back(b);
  one_.len += 1;
}

std::span<const std::uint8_t> Bytes::view() const {
  if (many_ || (one_.len != 0 && !one_.block)) {
    const std::uint32_t memo = many_ ? many_->sum : kNoSum;
    Buffer bytes = flat();
    const auto len = static_cast<std::uint32_t>(bytes.size());
    many_.reset();
    one_ = Chunk{BlockRef(std::move(bytes)), 0, len};
    one_.block->sum = memo;
  }
  if (one_.len == 0) return {};
  return {one_.data(), one_.len};
}

Buffer Bytes::copy() const {
  if (!many_ && one_.block) return Buffer(one_.data(), one_.data() + one_.len);
  return flat();
}

Buffer Bytes::take() {
  Buffer out = sole_whole_block() ? std::move(one_.block->bytes) : copy();
  *this = Bytes{};
  return out;
}

std::uint32_t Bytes::sum_chunks() const {
  // A chunk at an odd stream offset adds its even-offset sum byte-swapped
  // (RFC 1071 §2(B)); swapping the running sum around it does the same.
  std::uint32_t s = 0;
  std::size_t pos = 0;
  for (const Chunk& c : chunks()) {
    const bool odd = pos % 2 != 0;
    if (odd) s = swap16(s);
    s = c.block ? net::checksum_accumulate({c.data(), c.len}, s)
                : net::checksum_accumulate_run(c.len, static_cast<std::uint8_t>(c.off), s);
    if (odd) s = swap16(s);
    pos += c.len;
  }
  g_summed += pos;
  return s;
}

bool Bytes::shares_storage_with(const Bytes& o) const {
  const auto a = chunks();
  const auto b = o.chunks();
  return !a.empty() && !b.empty() && a.front().block && a.front().block == b.front().block;
}

bool Bytes::operator==(const Bytes& o) const {
  if (size() != o.size()) return false;
  const auto a = chunks();
  const auto b = o.chunks();
  std::size_t i = 0, j = 0, ai = 0, bj = 0;
  while (i < a.size()) {
    const Chunk& x = a[i];
    const Chunk& y = b[j];
    const std::size_t n = std::min<std::size_t>(x.len - ai, y.len - bj);
    const std::uint8_t* px = x.block ? x.data() + ai : nullptr;
    const std::uint8_t* py = y.block ? y.data() + bj : nullptr;
    const auto all_fill = [n](const std::uint8_t* p, std::uint32_t fill) {
      return std::all_of(p, p + n, [fill](std::uint8_t v) { return v == fill; });
    };
    const bool same = px && py   ? std::memcmp(px, py, n) == 0
                      : px       ? all_fill(px, y.off)
                      : py       ? all_fill(py, x.off)
                                 : x.off == y.off;
    if (!same) return false;
    ai += n;
    bj += n;
    if (ai == x.len) {
      ++i;
      ai = 0;
    }
    if (bj == y.len) {
      ++j;
      bj = 0;
    }
  }
  return true;
}

}  // namespace dvemig
