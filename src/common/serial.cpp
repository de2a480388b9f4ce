#include "src/common/serial.hpp"

#include <algorithm>
#include <utility>

namespace dvemig {

namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t fnv1a_update(std::uint64_t h, std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

// Out of line on purpose: inlined right after append_le's push_backs, the
// range inserts of bytes() and repeat() trip false GCC 12 -O3 -Warray-bounds /
// -Wstringop-overflow reports about the freshly grown buffer.
void BinaryWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void BinaryWriter::repeat(std::size_t n, std::uint8_t v) { buf_.insert(buf_.end(), n, v); }

void BinaryWriter::append(const Bytes& data) {
  data.for_each_chunk([this](std::span<const std::uint8_t> real) { bytes(real); },
                      [this](std::size_t n, std::uint8_t fill) { this->fill(n, fill); });
}

void BinaryWriter::fill(std::size_t n, std::uint8_t v) {
  if (n == 0) return;
  const std::size_t at = size();
  run_bytes_ += n;
  if (!runs_.empty() && runs_.back().at + runs_.back().len == at && runs_.back().fill == v) {
    runs_.back().len += n;
    return;
  }
  runs_.push_back(Run{at, buf_.size(), n, v});
}

Bytes BinaryWriter::take_bytes() {
  if (runs_.empty()) return Bytes(std::exchange(buf_, {}));
  Bytes out;
  const Bytes real(std::exchange(buf_, {}));
  std::size_t done = 0;  // real bytes already appended
  for (const Run& run : runs_) {
    out.append(real.slice(done, run.real - done));
    out.append_run(run.len, run.fill);
    done = run.real;
  }
  out.append(real.slice(done, real.size() - done));
  runs_.clear();
  run_bytes_ = 0;
  return out;
}

std::vector<BinaryWriter::Run>::const_iterator BinaryWriter::run_after(std::size_t pos) const {
  return std::lower_bound(runs_.begin(), runs_.end(), pos, [](const Run& run, std::size_t p) {
    return run.at + run.len <= p;
  });
}

std::size_t BinaryWriter::real_at(std::size_t pos, std::size_t n) const {
  DVEMIG_EXPECTS(pos + n <= size());
  const auto next = run_after(pos);
  if (next == runs_.end()) return pos - run_bytes_;
  DVEMIG_EXPECTS(next->at >= pos + n);  // real bytes only, never fill
  return next->real - (next->at - pos);
}

void BinaryWriter::truncate_to(std::size_t pos) {
  DVEMIG_EXPECTS(pos <= size());
  while (!runs_.empty() && runs_.back().at >= pos) {
    run_bytes_ -= runs_.back().len;
    runs_.pop_back();
  }
  if (!runs_.empty() && runs_.back().at + runs_.back().len > pos) {
    const std::size_t cut = runs_.back().at + runs_.back().len - pos;
    runs_.back().len -= cut;
    run_bytes_ -= cut;
  }
  buf_.resize(pos - run_bytes_);
}

void BinaryWriter::expand() {
  if (runs_.empty()) return;
  Buffer flat;
  flat.reserve(size());
  std::size_t done = 0;  // real bytes already copied
  for (const Run& run : runs_) {
    flat.insert(flat.end(), buf_.begin() + static_cast<std::ptrdiff_t>(done),
                buf_.begin() + static_cast<std::ptrdiff_t>(run.real));
    flat.insert(flat.end(), run.len, run.fill);
    detail::count_materialized(run.len);
    done = run.real;
  }
  flat.insert(flat.end(), buf_.begin() + static_cast<std::ptrdiff_t>(done), buf_.end());
  buf_ = std::move(flat);
  runs_.clear();
  run_bytes_ = 0;
}

std::uint64_t BinaryWriter::hash_from(std::size_t pos) const {
  DVEMIG_EXPECTS(pos <= size());
  const std::span<const std::uint8_t> real(buf_);
  std::uint64_t h = kFnvOffset;
  auto it = run_after(pos);
  // Where the real bytes from `pos` on begin: a run that `pos` falls inside
  // counts from `pos` on.
  std::size_t done = it == runs_.end() ? pos - run_bytes_
                                       : it->real - (it->at - std::min(it->at, pos));
  for (; it != runs_.end(); ++it) {
    h = fnv1a_update(h, real.subspan(done, it->real - done));
    const std::size_t len = it->at + it->len - std::max(it->at, pos);
    std::uint8_t token[9];
    for (std::size_t i = 0; i < 8; ++i) token[i] = static_cast<std::uint8_t>(len >> (8 * i));
    token[8] = it->fill;
    h = fnv1a_update(h, token);
    done = it->real;
  }
  return fnv1a_update(h, real.subspan(done));
}

BinaryReader::BinaryReader(const Bytes& data) : src_(&data), size_(data.size()) {
  if (!data.empty()) load(0);
}

void BinaryReader::load(std::size_t k) {
  DVEMIG_EXPECTS(src_ != nullptr && k < src_->chunks().size());
  chunk_ = k;
  const Bytes::Chunk& c = src_->chunks()[k];
  cur_ = c.block ? c.data() : nullptr;
  fill_ = static_cast<std::uint8_t>(c.off);
  avail_ = c.len;
}

std::span<const std::uint8_t> BinaryReader::span(std::size_t n) {
  DVEMIG_EXPECTS(pos_ + n <= size_);
  if (n == 0) return {};
  if (avail_ == 0) load_next();
  if (cur_ != nullptr && avail_ >= n) {
    const std::span<const std::uint8_t> out(cur_, n);
    cur_ += n;
    avail_ -= n;
    pos_ += n;
    return out;
  }
  Buffer& out = copies_.emplace_back();
  out.reserve(n);
  while (out.size() < n) {
    if (avail_ == 0) load_next();
    const std::size_t k = std::min(n - out.size(), avail_);
    if (cur_ != nullptr) {
      out.insert(out.end(), cur_, cur_ + k);
      cur_ += k;
    } else {
      out.insert(out.end(), k, fill_);
      detail::count_materialized(k);
    }
    avail_ -= k;
    pos_ += k;
  }
  return out;
}

Bytes BinaryReader::bytes(std::size_t n) {
  DVEMIG_EXPECTS(pos_ + n <= size_);
  if (src_ == nullptr) {
    Bytes out(Buffer(cur_, cur_ + n));
    cur_ += n;
    avail_ -= n;
    pos_ += n;
    return out;
  }
  Bytes out;
  while (n > 0) {
    if (avail_ == 0) load_next();
    const Bytes::Chunk& c = src_->chunks()[chunk_];
    const auto k = static_cast<std::uint32_t>(std::min(n, avail_));
    const auto at = static_cast<std::uint32_t>(c.len - avail_);
    out.push(Bytes::Chunk{c.block, c.block ? c.off + at : c.off, k});
    if (cur_ != nullptr) cur_ += k;
    avail_ -= k;
    pos_ += k;
    n -= k;
  }
  return out;
}

void BinaryReader::skip(std::size_t n) {
  DVEMIG_EXPECTS(pos_ + n <= size_);
  pos_ += n;
  while (n > 0) {
    if (avail_ == 0) load_next();
    const std::size_t k = std::min(n, avail_);
    if (cur_ != nullptr) cur_ += k;
    avail_ -= k;
    n -= k;
  }
}

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  return fnv1a_update(kFnvOffset, data);
}

}  // namespace dvemig
