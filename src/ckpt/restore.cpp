#include "src/ckpt/restore.hpp"

namespace dvemig::ckpt {

std::shared_ptr<proc::Process> restore_process(proc::Node& dest,
                                               const ProcessImage& img) {
  auto proc = std::make_shared<proc::Process>(dest, img.pid, img.name);
  proc->freeze();  // restoring processes stay frozen until migration completes

  // Address-space layout. Incremental deltas applied earlier in the migration are
  // semantically merged here: the final image's area list is authoritative.
  for (const auto& a : img.areas) {
    if (proc->mem().find_area(a.start) == nullptr) {
      proc->mem().map_fixed(a);
    }
  }

  // Threads: replace the constructor-made main thread with the checkpointed set.
  proc->threads() = img.threads;

  proc->signal_handlers() = img.signal_handlers;

  // Regular files re-open by path at the same fd and offset (file *contents* are
  // not transferred — Section III-A: shared or replicated file system).
  for (const auto& f : img.regular_files) {
    proc->files().open_file_at(f.fd, f.path, f.offset, f.flags);
  }

  // App logic: reconstruct but do not start; Process::resume() starts it.
  if (!img.app_kind.empty()) {
    BinaryReader r(img.app_blob);
    proc->set_app(proc::AppLogic::create(img.app_kind, r));
  }
  return proc;
}

void apply_memory_delta(proc::Process& proc, const MemoryDelta& delta) {
  auto& mem = proc.mem();
  for (const std::uint64_t start : delta.removed_areas) {
    if (mem.find_area(start) != nullptr) mem.munmap(start);
  }
  for (const auto& a : delta.added_areas) {
    if (mem.find_area(a.start) == nullptr) mem.map_fixed(a);
  }
  for (const auto& a : delta.modified_areas) {
    // Extent changes are modelled as replace-in-place.
    if (mem.find_area(a.start) != nullptr) mem.munmap(a.start);
    mem.map_fixed(a);
  }
  // Dirty-page payloads carry no content in the simulator; applying them is a
  // no-op beyond the transfer cost already paid on the wire.
}

}  // namespace dvemig::ckpt
