#include "src/ckpt/dirty_tracker.hpp"

#include <algorithm>

namespace dvemig::ckpt {

namespace {

bool same_extent(const proc::VmArea& a, const proc::VmArea& b) {
  return a.start == b.start && a.length == b.length && a.prot == b.prot;
}

}  // namespace

MemoryDelta DirtyTracker::round(proc::AddressSpace& mem) {
  MemoryDelta delta;
  rounds_ += 1;

  // --- vm_area diff: walk both sorted lists in lockstep ---
  std::vector<proc::VmArea> current = mem.areas();

  std::size_t i = 0;  // tracked (previous round)
  std::size_t j = 0;  // current
  while (i < tracked_areas_.size() || j < current.size()) {
    if (i == tracked_areas_.size()) {
      delta.added_areas.push_back(current[j++]);
    } else if (j == current.size()) {
      delta.removed_areas.push_back(tracked_areas_[i++].start);
    } else if (tracked_areas_[i].start == current[j].start) {
      if (!same_extent(tracked_areas_[i], current[j])) {
        delta.modified_areas.push_back(current[j]);
      }
      ++i;
      ++j;
    } else if (tracked_areas_[i].start < current[j].start) {
      delta.removed_areas.push_back(tracked_areas_[i++].start);
    } else {
      delta.added_areas.push_back(current[j++]);
    }
  }
  tracked_areas_ = std::move(current);

  // --- dirty pages ---
  if (rounds_ == 1) {
    // First round: the destination has nothing yet, so every anonymous page is
    // transferred regardless of its dirty bit (a re-migrated process's pages are
    // clean — they were just restored — but must still ship in full). The areas
    // are in start order, so the pages come out ascending.
    (void)mem.collect_and_clear_dirty();
    for (const auto& area : mem.areas()) {
      if (area.file_backed) continue;
      for (std::uint64_t p = area.start / proc::kPageSize;
           p < area.end() / proc::kPageSize; ++p) {
        delta.dirty_pages.push_back(p);
      }
    }
  } else {
    delta.dirty_pages = mem.collect_and_clear_dirty();
  }
  return delta;
}

std::vector<DirtyTracker::ShardRange> DirtyTracker::shard_ranges(std::size_t count,
                                                                 std::size_t workers) {
  std::vector<ShardRange> out;
  if (count == 0 || workers == 0) return out;
  const std::size_t shards = std::min(count, workers);
  const std::size_t base = count / shards;
  const std::size_t extra = count % shards;  // first `extra` shards get one more
  std::size_t at = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out.push_back(ShardRange{at, at + len});
    at += len;
  }
  return out;
}

std::size_t DirtyTracker::max_shard(std::size_t count, std::size_t workers) {
  if (count == 0 || workers == 0) return 0;
  return (count + workers - 1) / workers;
}

}  // namespace dvemig::ckpt
