// Per-process file descriptor table.
//
// The freeze phase iterates this table (Section III-C): regular files are re-opened
// by path on the destination (contents are assumed shared/replicated, Section II-A),
// while sockets take the collective socket-migration path.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <ranges>
#include <string>
#include <utility>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/types.hpp"
#include "src/stack/socket.hpp"

namespace dvemig::proc {

enum class FileKind : std::uint8_t { regular, socket };

struct OpenFile {
  FileKind kind{FileKind::regular};
  // regular
  std::string path;
  std::uint64_t offset{0};
  std::uint32_t flags{0};
  // socket
  std::shared_ptr<stack::Socket> socket;
};

class FileTable {
 public:
  Fd open_file(std::string path, std::uint32_t flags = 0);
  Fd attach_socket(std::shared_ptr<stack::Socket> socket);
  /// Attach at a specific fd (restore path rebuilds the exact table).
  void attach_socket_at(Fd fd, std::shared_ptr<stack::Socket> socket);
  void open_file_at(Fd fd, std::string path, std::uint64_t offset, std::uint32_t flags);

  void seek(Fd fd, std::uint64_t offset);
  void close(Fd fd);

  const OpenFile& get(Fd fd) const {
    DVEMIG_EXPECTS(has(fd));
    return *slots_[static_cast<std::size_t>(fd)];
  }
  OpenFile& get(Fd fd) { return const_cast<OpenFile&>(std::as_const(*this).get(fd)); }
  bool has(Fd fd) const {
    return fd >= 0 && static_cast<std::size_t>(fd) < slots_.size() &&
           slots_[static_cast<std::size_t>(fd)].has_value();
  }

  /// The open files as (fd, file) pairs, in fd order (the freeze phase's).
  auto entries() const {
    return std::views::iota(std::size_t{0}, slots_.size()) |
           std::views::filter([this](std::size_t i) { return slots_[i].has_value(); }) |
           std::views::transform([this](std::size_t i) {
             return std::pair<Fd, const OpenFile&>(static_cast<Fd>(i), *slots_[i]);
           });
  }
  std::size_t size() const { return open_; }
  std::size_t socket_count() const;

 private:
  /// The lowest free fd at or above floor_.
  Fd next_fd();
  /// Open `file` at the free fd `fd`.
  void install(Fd fd, OpenFile file);

  std::vector<std::optional<OpenFile>> slots_;  // indexed by fd; empty = free
  std::size_t open_{0};
  // Every free fd from floor_ up below slots_.size() is in this min-heap, so
  // the lowest free fd is its top (or, if it is empty, the first fd past the
  // table) and an allocation never rescans the open fds. An fd opened at a
  // chosen number stays in the heap and is dropped when it reaches the top.
  std::priority_queue<Fd, std::vector<Fd>, std::greater<>> free_;
  // 0-2 are notionally stdio. Closing an fd below the floor lowers it (POSIX
  // lowest-free-fd): every closed fd is allocatable again.
  Fd floor_{3};
};

}  // namespace dvemig::proc
