#include "src/ckpt/image.hpp"

#include "src/proc/node.hpp"

namespace dvemig::ckpt {

ProcessImage snapshot_process(const proc::Process& proc) {
  ProcessImage img;
  img.pid = proc.pid();
  img.name = proc.name();
  img.areas = proc.mem().areas();
  img.threads = proc.threads();
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
