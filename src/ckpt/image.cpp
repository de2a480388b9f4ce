#include "src/ckpt/image.hpp"

#include "src/proc/node.hpp"

namespace dvemig::ckpt {

ProcessImage snapshot_process(const proc::Process& proc) {
  ProcessImage img;
  img.pid = proc.pid();
  img.name = proc.name();
  for (const auto& a : proc.mem().areas()) img.areas.push_back(VmAreaImage::from(a));
  for (const auto& t : proc.threads()) {
    ThreadImage ti;
    ti.tid = t.tid;
    ti.gp_regs = t.gp_regs;
    ti.pc = t.pc;
    ti.sp = t.sp;
    ti.signal_mask = t.signal_mask;
    img.threads.push_back(ti);
  }
  img.signal_handlers = proc.signal_handlers();
  for (const auto& [fd, file] : proc.files().entries()) {
    if (file.kind == proc::FileKind::regular) {
      img.regular_files.push_back(FileImage{fd, file.path, file.offset, file.flags});
    } else {
      img.socket_fds.push_back(fd);
    }
  }
  if (proc.app()) {
    img.app_kind = proc.app()->kind();
    BinaryWriter w;
    proc.app()->serialize(w);
    img.app_blob = w.take();
  }
  const auto& stk = proc.node().stack();
  img.src_jiffies = stk.jiffies();
  img.src_local_now_ns = stk.local_now_ns();
  return img;
}

}  // namespace dvemig::ckpt
