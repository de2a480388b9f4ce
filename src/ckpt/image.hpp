// Checkpoint image structures (the BLCR-equivalent layer).
//
// A ProcessImage carries everything the freeze phase transfers *except* sockets,
// which take the dedicated socket-migration path (src/mig). Memory areas and
// thread contexts are the process's own proc::VmArea / proc::ThreadContext,
// whose field lists sit beside them. Byte sizes of the serialized forms are
// measured quantities in the experiments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/serial.hpp"
#include "src/common/types.hpp"
#include "src/proc/process.hpp"

namespace dvemig::ckpt {

struct FileImage {
  Fd fd{-1};
  std::string path;
  std::uint64_t offset{0};
  std::uint32_t flags{0};

  template <class Io, class Self>
  static void fields(Io& io, Self& f) {
    io.i32(f.fd);
    io.str(f.path);
    io.u64(f.offset);
    io.u32(f.flags);
  }
};

/// Freeze-phase process metadata (open file table, descriptors, thread relations,
/// registers, signal handlers, ids — Figure 3's leader/per-thread transfers).
struct ProcessImage {
  Pid pid{};
  std::string name;
  std::vector<proc::VmArea> areas;
  std::vector<proc::ThreadContext> threads;
  std::map<int, std::uint64_t> signal_handlers;
  std::vector<FileImage> regular_files;
  std::vector<Fd> socket_fds;  // order of reattachment on the destination
  std::string app_kind;
  Buffer app_blob;
  std::int64_t src_jiffies{0};       // source jiffies at checkpoint (Section V-C1)
  std::int64_t src_local_now_ns{0};  // source local clock at checkpoint

  template <class Io, class Self>
  static void fields(Io& io, Self& img) {
    io.u32(img.pid.value);
    io.str(img.name);
    io.seq(img.areas);
    io.seq(img.threads);
    io.seq(img.signal_handlers, [](Io& hio, auto& handler) {
      hio.i32(handler.first);
      hio.u64(handler.second);
    });
    io.seq(img.regular_files);
    io.seq(img.socket_fds, [](Io& fio, auto& fd) { fio.i32(fd); });
    io.str(img.app_kind);
    io.blob(img.app_blob);
    io.i64(img.src_jiffies);
    io.i64(img.src_local_now_ns);
  }
  void serialize(BinaryWriter& w) const { put(w, *this); }
  static ProcessImage deserialize(BinaryReader& r) { return get<ProcessImage>(r); }
};

/// Capture the freeze-phase metadata of a process (sockets listed, not dumped).
ProcessImage snapshot_process(const proc::Process& proc);

/// One precopy round's address-space delta (vm_area diff + dirty pages).
struct MemoryDelta {
  std::vector<proc::VmArea> added_areas;
  std::vector<std::uint64_t> removed_areas;    // start addresses
  std::vector<proc::VmArea> modified_areas;    // extent/prot changed in place
  std::vector<std::uint64_t> dirty_pages;      // page numbers to (re)transfer

  template <class Io, class Self>
  static void fields(Io& io, Self& d) {
    io.seq(d.added_areas);
    io.seq(d.removed_areas, [](Io& rio, auto& start) { rio.u64(start); });
    io.seq(d.modified_areas);
    // Page payloads: the simulator stores no page contents, so each dirty
    // page carries a page-sized zero fill that keeps the transfer size
    // honest. The fill is one run from here to the destination's skip
    // (DESIGN.md §12.8): sized and checksummed, never written out.
    io.seq(d.dirty_pages, [](Io& pio, auto& page) {
      pio.u64(page);
      pio.pad(proc::kPageSize, 0);
    });
  }
  void serialize(BinaryWriter& w) const { put(w, *this); }
  static MemoryDelta deserialize(BinaryReader& r) { return get<MemoryDelta>(r); }
  bool empty() const {
    return added_areas.empty() && removed_areas.empty() && modified_areas.empty() &&
           dirty_pages.empty();
  }
};

}  // namespace dvemig::ckpt
