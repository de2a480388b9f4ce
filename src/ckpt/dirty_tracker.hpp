// Incremental address-space tracking (Section V-A).
//
// Two mechanisms, exactly as in the paper:
//  1. dirty pages — read-and-clear of the per-page dirty bits (the kernel-module
//     equivalent of walking PTE dirty bits without touching kernel code);
//  2. vm_area diffing — a private tracking list holding last round's memory-area
//     layout, compared against the live vm_area list each loop to detect
//     insertions (mmap), removals (munmap) and in-place modifications.
#pragma once

#include <vector>

#include "src/ckpt/image.hpp"
#include "src/proc/memory.hpp"

namespace dvemig::ckpt {

class DirtyTracker {
 public:
  /// First round: the whole address space counts as new (full precopy transfer).
  /// Every later round returns only changes since the previous call.
  MemoryDelta round(proc::AddressSpace& mem);

  /// Number of rounds performed so far.
  std::size_t rounds() const { return rounds_; }

  /// Contiguous near-equal partition of `count` items across at most `workers`
  /// shards (the parallel data path's static work-split: deterministic, no
  /// balancing decisions at runtime). Returns only non-empty shards, the first
  /// `count % workers` of them one item larger.
  struct ShardRange {
    std::size_t begin{0};
    std::size_t end{0};  // exclusive
    std::size_t size() const { return end - begin; }
  };
  static std::vector<ShardRange> shard_ranges(std::size_t count, std::size_t workers);

  /// Size of the largest shard: ceil(count / workers); 0 when count == 0.
  static std::size_t max_shard(std::size_t count, std::size_t workers);

 private:
  std::vector<proc::VmArea> tracked_areas_;  // "our own tracking structures"
  std::size_t rounds_{0};
};

}  // namespace dvemig::ckpt
