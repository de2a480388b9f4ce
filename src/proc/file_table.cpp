#include "src/proc/file_table.hpp"

#include <iterator>

namespace dvemig::proc {

Fd FileTable::next_fd() {
  DVEMIG_EXPECTS(!free_.empty());  // all 2^31 fds open
  const Fd fd = free_.begin()->first;
  take_fd(fd);
  return fd;
}

void FileTable::take_fd(Fd fd) {
  const auto it = free_.upper_bound(fd);
  if (it == free_.begin() || std::prev(it)->second < fd) return;  // below floor_
  auto run = free_.extract(std::prev(it));
  const Fd lo = run.key();
  if (fd < run.mapped()) {  // the run's node keeps the part above fd: no allocation
    run.key() = fd + 1;
    free_.insert(std::move(run));
  }
  if (lo < fd) free_.emplace(lo, fd - 1);
}

void FileTable::free_fds(Fd lo, Fd hi) {
  auto next = free_.upper_bound(hi);
  if (next != free_.end() && next->first == hi + 1) {
    hi = next->second;
    next = free_.erase(next);
  }
  if (next != free_.begin()) {
    const auto prev = std::prev(next);
    if (prev->second + 1 == lo) {
      prev->second = hi;
      return;
    }
  }
  free_.emplace_hint(next, lo, hi);
}

Fd FileTable::open_file(std::string path, std::uint32_t flags) {
  const Fd fd = next_fd();
  entries_.emplace(fd, OpenFile{FileKind::regular, std::move(path), 0, flags, nullptr});
  return fd;
}

Fd FileTable::attach_socket(std::shared_ptr<stack::Socket> socket) {
  DVEMIG_EXPECTS(socket != nullptr);
  const Fd fd = next_fd();
  entries_.emplace(fd, OpenFile{FileKind::socket, {}, 0, 0, std::move(socket)});
  return fd;
}

void FileTable::attach_socket_at(Fd fd, std::shared_ptr<stack::Socket> socket) {
  DVEMIG_EXPECTS(socket != nullptr);
  DVEMIG_EXPECTS(!entries_.contains(fd));
  take_fd(fd);
  entries_.emplace(fd, OpenFile{FileKind::socket, {}, 0, 0, std::move(socket)});
}

void FileTable::open_file_at(Fd fd, std::string path, std::uint64_t offset,
                             std::uint32_t flags) {
  DVEMIG_EXPECTS(!entries_.contains(fd));
  take_fd(fd);
  entries_.emplace(fd, OpenFile{FileKind::regular, std::move(path), offset, flags, nullptr});
}

void FileTable::seek(Fd fd, std::uint64_t offset) {
  OpenFile& f = get(fd);
  DVEMIG_EXPECTS(f.kind == FileKind::regular);
  f.offset = offset;
}

void FileTable::close(Fd fd) {
  const auto it = entries_.find(fd);
  DVEMIG_EXPECTS(it != entries_.end());
  entries_.erase(it);
  if (fd >= floor_) {
    free_fds(fd, fd);
    return;
  }
  // The floor drops to fd: it and every fd up to the old floor that is not
  // open become allocatable.
  Fd lo = fd;
  for (auto open = entries_.lower_bound(fd); open != entries_.end() && open->first < floor_;
       ++open) {
    if (lo < open->first) free_fds(lo, open->first - 1);
    lo = open->first + 1;
  }
  if (lo < floor_) free_fds(lo, floor_ - 1);
  floor_ = fd;
}

const OpenFile& FileTable::get(Fd fd) const {
  const auto it = entries_.find(fd);
  DVEMIG_EXPECTS(it != entries_.end());
  return it->second;
}

OpenFile& FileTable::get(Fd fd) {
  const auto it = entries_.find(fd);
  DVEMIG_EXPECTS(it != entries_.end());
  return it->second;
}

std::size_t FileTable::socket_count() const {
  std::size_t n = 0;
  for (const auto& [fd, f] : entries_) {
    if (f.kind == FileKind::socket) ++n;
  }
  return n;
}

}  // namespace dvemig::proc
