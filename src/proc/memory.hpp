// Process address space: vm_area list + per-page dirty bits.
//
// This is the surface the precopy mechanism works against (Section V-A): the
// dirty-bit scan (`collect_and_clear_dirty`) stands in for walking PTE dirty bits,
// and the vm_area list is what the migration's own tracking list is diffed against
// each incremental loop. The dirty bits are one bitmap per area, as a page table
// keeps them beside its mappings (DESIGN.md §12.7).
//
// Page *contents* are not stored, here or on the wire: a page delta carries a
// fill run of the page's size per dirty page, which every layer from the
// serializer to the destination's parser slices, sums and skips without
// writing it out (DESIGN.md §12.8). So a multi-gigabyte simulated cluster,
// and a 100 MB precopy round, fit in host memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"

namespace dvemig::proc {

inline constexpr std::uint64_t kPageSize = 4096;

enum ProtBits : std::uint32_t {
  prot_read = 1,
  prot_write = 2,
  prot_exec = 4,
};

struct VmArea {
  std::uint64_t start{0};   // page aligned
  std::uint64_t length{0};  // page aligned, > 0
  std::uint32_t prot{prot_read | prot_write};
  bool file_backed{false};
  std::string name;  // "[heap]", "[stack]", "libfoo.so", …

  std::uint64_t end() const { return start + length; }
  std::uint64_t pages() const { return length / kPageSize; }
  bool contains(std::uint64_t addr) const { return addr >= start && addr < end(); }

  /// Checkpoint-image field list (src/common/serial.hpp).
  template <class Io, class Self>
  static void fields(Io& io, Self& a) {
    io.u64(a.start);
    io.u64(a.length);
    io.u32(a.prot);
    io.boolean(a.file_backed);
    io.str(a.name);
  }
};

class AddressSpace {
 public:
  /// Map a new area; returns its start address (simple bump allocation).
  std::uint64_t mmap(std::uint64_t length, std::uint32_t prot, std::string name,
                     bool file_backed = false);

  /// Restore path: map an area at its exact original address. Pages arrive clean
  /// (their content was just transferred by the checkpoint).
  void map_fixed(const VmArea& area);

  /// Unmap the area starting at `start` (must match an existing area exactly).
  void munmap(std::uint64_t start);

  /// Change protection bits of the area starting at `start`.
  void mprotect(std::uint64_t start, std::uint32_t prot);

  const VmArea* find_area(std::uint64_t addr) const;
  const std::vector<VmArea>& areas() const { return areas_; }

  /// Write access: mark the touched pages dirty.
  void touch(std::uint64_t addr, std::uint64_t len);

  /// Dirty `count` randomly chosen writable pages (models application activity).
  void touch_random(Rng& rng, std::uint64_t count);

  /// The dirty-bit scan: return all dirty page numbers and clear their bits.
  std::vector<std::uint64_t> collect_and_clear_dirty();

  std::size_t dirty_pages() const { return dirty_count_; }
  std::uint64_t total_pages() const;
  std::uint64_t total_bytes() const { return total_pages() * kPageSize; }

 private:
  /// Index of the area holding `addr`, or areas_.size() when none does.
  std::size_t area_index(std::uint64_t addr) const;
  /// Insert `area` in start order with a bitmap of all-dirty or all-clean pages.
  void insert_area(VmArea area, bool dirty);
  void mark_dirty(std::size_t area, std::uint64_t page_offset);
  /// Rebuild writable_/writable_end_; every change to the areas calls it.
  void index_writable();

  std::vector<VmArea> areas_;  // sorted by start, non-overlapping
  // dirty_[i] is areas_[i]'s bitmap: bit p of word p / 64 is page p of the area.
  std::vector<std::vector<std::uint64_t>> dirty_;
  std::size_t dirty_count_{0};
  // Writable areas in start order and their running page counts: writable area
  // writable_[j] holds draws [writable_end_[j - 1], writable_end_[j]).
  std::vector<std::size_t> writable_;
  std::vector<std::uint64_t> writable_end_;
  std::uint64_t next_addr_{0x10000};
};

}  // namespace dvemig::proc
