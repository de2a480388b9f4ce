// Simulated process: threads, address space, fd table, signal handlers, app logic.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"
#include "src/proc/app_logic.hpp"
#include "src/proc/file_table.hpp"
#include "src/proc/memory.hpp"

namespace dvemig::proc {

class Node;

struct ThreadContext {
  std::uint32_t tid{0};
  std::array<std::uint64_t, 16> gp_regs{};  // synthetic register file
  std::uint64_t pc{0};
  std::uint64_t sp{0};
  std::uint64_t signal_mask{0};

  /// Checkpoint-image field list (src/common/serial.hpp).
  template <class Io, class Self>
  static void fields(Io& io, Self& t) {
    io.u32(t.tid);
    for (auto& reg : t.gp_regs) io.u64(reg);
    io.u64(t.pc);
    io.u64(t.sp);
    io.u64(t.signal_mask);
  }
};

class Process {
 public:
  Process(Node& node, Pid pid, std::string name);

  Pid pid() const { return pid_; }
  const std::string& name() const { return name_; }
  Node& node() const { return *node_; }

  AddressSpace& mem() { return mem_; }
  const AddressSpace& mem() const { return mem_; }
  FileTable& files() { return files_; }
  const FileTable& files() const { return files_; }

  std::vector<ThreadContext>& threads() { return threads_; }
  const std::vector<ThreadContext>& threads() const { return threads_; }
  ThreadContext& add_thread();

  std::map<int, std::uint64_t>& signal_handlers() { return signal_handlers_; }
  const std::map<int, std::uint64_t>& signal_handlers() const {
    return signal_handlers_;
  }

  void set_app(std::shared_ptr<AppLogic> app) { app_ = std::move(app); }
  const std::shared_ptr<AppLogic>& app() const { return app_; }

  /// Freeze: app execution halts (migration freeze phase).
  void freeze();
  /// Resume after restore (or after an aborted migration).
  void resume();
  bool frozen() const { return frozen_; }

  /// Charge CPU time to this process on its node's meter.
  void account_cpu(SimDuration cpu);

  /// Deterministic per-process RNG (page-touch patterns, workload jitter).
  Rng& rng() { return rng_; }

 private:
  Node* node_;
  Pid pid_;
  std::string name_;
  AddressSpace mem_;
  FileTable files_;
  std::vector<ThreadContext> threads_;
  std::map<int, std::uint64_t> signal_handlers_;
  std::shared_ptr<AppLogic> app_;
  bool frozen_{false};
  Rng rng_;
  std::uint32_t next_tid_{1};
};

}  // namespace dvemig::proc
