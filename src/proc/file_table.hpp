// Per-process file descriptor table.
//
// The freeze phase iterates this table (Section III-C): regular files are re-opened
// by path on the destination (contents are assumed shared/replicated, Section II-A),
// while sockets take the collective socket-migration path.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>

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

  const OpenFile& get(Fd fd) const;
  OpenFile& get(Fd fd);
  bool has(Fd fd) const { return entries_.contains(fd); }

  const std::map<Fd, OpenFile>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t socket_count() const;

 private:
  /// Take the lowest free fd: the first fd of the first free run.
  Fd next_fd();
  /// Remove `fd` from the free runs (it is being opened at a chosen number).
  void take_fd(Fd fd);
  /// Return [lo, hi] to the free runs, merging with its neighbours.
  void free_fds(Fd lo, Fd hi);

  std::map<Fd, OpenFile> entries_;  // ordered: freeze-phase iteration is by fd
  // The allocatable fds as disjoint runs, first fd -> last fd (inclusive). They
  // cover every fd from floor_ up that is not open, so the lowest free fd is
  // free_.begin()->first and an allocation never rescans the open fds.
  std::map<Fd, Fd> free_{{3, std::numeric_limits<Fd>::max()}};
  // 0-2 are notionally stdio. Closing an fd below the floor lowers it (POSIX
  // lowest-free-fd): every closed fd is allocatable again.
  Fd floor_{3};
};

}  // namespace dvemig::proc
