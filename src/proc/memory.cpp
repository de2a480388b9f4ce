#include "src/proc/memory.hpp"

#include <algorithm>
#include <bit>

namespace dvemig::proc {

namespace {

constexpr std::uint64_t kWordBits = 64;

bool by_start(const VmArea& a, const VmArea& b) { return a.start < b.start; }

}  // namespace

void AddressSpace::insert_area(VmArea area, bool dirty) {
  const std::uint64_t pages = area.pages();
  std::vector<std::uint64_t> bits((pages + kWordBits - 1) / kWordBits,
                                   dirty ? ~std::uint64_t{0} : 0);
  if (dirty) {
    if (const std::uint64_t tail = pages % kWordBits; tail != 0) {
      bits.back() = (std::uint64_t{1} << tail) - 1;
    }
    dirty_count_ += pages;
  }
  const auto pos = std::lower_bound(areas_.begin(), areas_.end(), area, by_start);
  dirty_.insert(dirty_.begin() + (pos - areas_.begin()), std::move(bits));
  areas_.insert(pos, std::move(area));
  index_writable();
}

std::uint64_t AddressSpace::mmap(std::uint64_t length, std::uint32_t prot,
                                 std::string name, bool file_backed) {
  DVEMIG_EXPECTS(length > 0);
  length = (length + kPageSize - 1) / kPageSize * kPageSize;
  const std::uint64_t start = next_addr_;
  next_addr_ += length + kPageSize;  // one-page guard gap between areas

  // Fresh anonymous memory has never been checkpointed: every page is dirty.
  // File-backed pages start clean — their contents live on the (shared) file
  // system and are never part of a checkpoint (BLCR re-opens files by path).
  insert_area(VmArea{start, length, prot, file_backed, std::move(name)}, !file_backed);
  return start;
}

void AddressSpace::map_fixed(const VmArea& area) {
  DVEMIG_EXPECTS(area.start % kPageSize == 0 && area.length % kPageSize == 0 &&
                 area.length > 0);
  DVEMIG_EXPECTS(find_area(area.start) == nullptr &&
                 find_area(area.end() - 1) == nullptr);
  insert_area(area, /*dirty=*/false);
  next_addr_ = std::max(next_addr_, area.end() + kPageSize);
}

void AddressSpace::munmap(std::uint64_t start) {
  const std::size_t i = area_index(start);
  DVEMIG_EXPECTS(i != areas_.size() && areas_[i].start == start);
  for (const std::uint64_t word : dirty_[i]) {
    dirty_count_ -= static_cast<std::size_t>(std::popcount(word));
  }
  dirty_.erase(dirty_.begin() + static_cast<std::ptrdiff_t>(i));
  areas_.erase(areas_.begin() + static_cast<std::ptrdiff_t>(i));
  index_writable();
}

void AddressSpace::mprotect(std::uint64_t start, std::uint32_t prot) {
  const std::size_t i = area_index(start);
  DVEMIG_EXPECTS(i != areas_.size() && areas_[i].start == start);
  areas_[i].prot = prot;
  index_writable();
}

std::size_t AddressSpace::area_index(std::uint64_t addr) const {
  // The last area starting at or below addr is the only one that can hold it.
  const auto it = std::upper_bound(
      areas_.begin(), areas_.end(), addr,
      [](std::uint64_t a, const VmArea& area) { return a < area.start; });
  if (it == areas_.begin() || !std::prev(it)->contains(addr)) return areas_.size();
  return static_cast<std::size_t>(std::prev(it) - areas_.begin());
}

const VmArea* AddressSpace::find_area(std::uint64_t addr) const {
  const std::size_t i = area_index(addr);
  return i == areas_.size() ? nullptr : &areas_[i];
}

void AddressSpace::mark_dirty(std::size_t area, std::uint64_t page_offset) {
  std::uint64_t& word = dirty_[area][page_offset / kWordBits];
  const std::uint64_t bit = std::uint64_t{1} << (page_offset % kWordBits);
  if ((word & bit) == 0) {
    word |= bit;
    dirty_count_ += 1;
  }
}

void AddressSpace::touch(std::uint64_t addr, std::uint64_t len) {
  DVEMIG_EXPECTS(len > 0);
  const std::size_t i = area_index(addr);
  DVEMIG_EXPECTS(i != areas_.size() && areas_[i].contains(addr + len - 1));
  DVEMIG_EXPECTS((areas_[i].prot & prot_write) != 0);
  const std::uint64_t first = (addr - areas_[i].start) / kPageSize;
  const std::uint64_t last = (addr + len - 1 - areas_[i].start) / kPageSize;
  for (std::uint64_t p = first; p <= last; ++p) mark_dirty(i, p);
}

void AddressSpace::index_writable() {
  writable_.clear();
  writable_end_.clear();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < areas_.size(); ++i) {
    if ((areas_[i].prot & prot_write) == 0) continue;
    total += areas_[i].pages();
    writable_.push_back(i);
    writable_end_.push_back(total);
  }
}

void AddressSpace::touch_random(Rng& rng, std::uint64_t count) {
  // One draw per page, uniform over the writable pages taken in start order.
  if (writable_end_.empty()) return;
  const std::uint64_t total = writable_end_.back();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t k = rng.next_below(total);
    const auto j = static_cast<std::size_t>(
        std::upper_bound(writable_end_.begin(), writable_end_.end(), k) -
        writable_end_.begin());
    mark_dirty(writable_[j], j == 0 ? k : k - writable_end_[j - 1]);
  }
}

std::vector<std::uint64_t> AddressSpace::collect_and_clear_dirty() {
  // Areas in start order, bits low to high: the pages come out ascending.
  std::vector<std::uint64_t> pages;
  if (dirty_count_ == 0) return pages;
  pages.reserve(dirty_count_);
  for (std::size_t i = 0; i < areas_.size(); ++i) {
    const std::uint64_t first = areas_[i].start / kPageSize;
    std::vector<std::uint64_t>& bits = dirty_[i];
    for (std::size_t w = 0; w < bits.size(); ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        pages.push_back(first + w * kWordBits +
                        static_cast<std::uint64_t>(std::countr_zero(word)));
      }
      bits[w] = 0;
    }
  }
  dirty_count_ = 0;
  return pages;
}

std::uint64_t AddressSpace::total_pages() const {
  std::uint64_t n = 0;
  for (const VmArea& a : areas_) n += a.pages();
  return n;
}

}  // namespace dvemig::proc
