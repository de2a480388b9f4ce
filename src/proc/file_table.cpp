#include "src/proc/file_table.hpp"

#include <algorithm>

namespace dvemig::proc {

Fd FileTable::next_fd() {
  while (!free_.empty() && has(free_.top())) free_.pop();
  if (free_.empty()) return std::max(floor_, static_cast<Fd>(slots_.size()));
  const Fd fd = free_.top();
  free_.pop();
  return fd;
}

void FileTable::install(Fd fd, OpenFile file) {
  DVEMIG_EXPECTS(fd >= 0 && !has(fd));
  const auto at = static_cast<std::size_t>(fd);
  if (at >= slots_.size()) {
    // The fds skipped over from floor_ up stay free.
    for (Fd gap = std::max(floor_, static_cast<Fd>(slots_.size())); gap < fd; ++gap) {
      free_.push(gap);
    }
    slots_.resize(at + 1);
  }
  slots_[at] = std::move(file);
  ++open_;
}

Fd FileTable::open_file(std::string path, std::uint32_t flags) {
  const Fd fd = next_fd();
  install(fd, OpenFile{FileKind::regular, std::move(path), 0, flags, nullptr});
  return fd;
}

Fd FileTable::attach_socket(std::shared_ptr<stack::Socket> socket) {
  DVEMIG_EXPECTS(socket != nullptr);
  const Fd fd = next_fd();
  install(fd, OpenFile{FileKind::socket, {}, 0, 0, std::move(socket)});
  return fd;
}

void FileTable::attach_socket_at(Fd fd, std::shared_ptr<stack::Socket> socket) {
  DVEMIG_EXPECTS(socket != nullptr);
  install(fd, OpenFile{FileKind::socket, {}, 0, 0, std::move(socket)});
}

void FileTable::open_file_at(Fd fd, std::string path, std::uint64_t offset,
                             std::uint32_t flags) {
  install(fd, OpenFile{FileKind::regular, std::move(path), offset, flags, nullptr});
}

void FileTable::seek(Fd fd, std::uint64_t offset) {
  OpenFile& f = get(fd);
  DVEMIG_EXPECTS(f.kind == FileKind::regular);
  f.offset = offset;
}

void FileTable::close(Fd fd) {
  DVEMIG_EXPECTS(has(fd));
  slots_[static_cast<std::size_t>(fd)].reset();
  --open_;
  free_.push(fd);
  if (fd >= floor_) return;
  // The floor drops to fd: every fd above it, up to the old floor, that is
  // not open becomes allocatable.
  const Fd end = std::min(floor_, static_cast<Fd>(slots_.size()));
  for (Fd above = fd + 1; above < end; ++above) {
    if (!has(above)) free_.push(above);
  }
  floor_ = fd;
}

std::size_t FileTable::socket_count() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      entries(), [](const auto& e) { return e.second.kind == FileKind::socket; }));
}

}  // namespace dvemig::proc
