// migd — the per-node process-migration daemon (Section II-B), together with
// transd, the translation daemon.
//
// A migration is driven by the source node's migd over a dedicated TCP connection
// to the destination's migd on the cluster network:
//
//   precopy  (process keeps running, Figure 3):
//     round k: dirty-page scan + vm_area diff -> memory_delta frame;
//              (incremental collective only) socket section deltas;
//              loop timeout halves each round until it reaches 20 ms.
//   freeze   (process unresponsive — this is the measured downtime):
//     1. capture_request -> destination arms loss-prevention filters -> ack;
//     2. translation requests to in-cluster peers' transd daemons -> acks;
//     3. sockets disabled (unhash, clear timers) and subtracted per strategy:
//          iterative              — per-socket request/ack round trips,
//          collective             — one unified buffer, one transfer,
//          incremental collective — unified buffer of *changes only*;
//     4. final memory delta + process image (fd table, threads, registers);
//     5. destination restores, adopts, resumes, reinjects captured packets,
//        replies resume_done.
//
// Freeze time = t(resume on destination) - t(freeze begin on source).
//
// The destination's migd sorts every accepted connection by its first frame:
// mig_begin opens a DestSession (dest_session.cpp) on a new DestTransport for
// that mig_id, and stripe_hello attaches the connection to the transport as a
// stripe channel (transport.hpp). The source side is one SourceSession
// (source_session.cpp) on a SourceTransport. migd.cpp holds Transd and the
// accept path.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/dirty_tracker.hpp"
#include "src/ckpt/restore.hpp"
#include "src/mig/capture.hpp"
#include "src/mig/cost_model.hpp"
#include "src/mig/delta_tracker.hpp"
#include "src/mig/protocol.hpp"
#include "src/mig/translation.hpp"
#include "src/proc/node.hpp"

namespace dvemig::mig {

class DestTransport;

enum class SocketMigStrategy : std::uint8_t {
  iterative = 0,               // the earlier one-by-one approach (baseline)
  collective = 1,              // three-phase aggregated migration
  incremental_collective = 2,  // + precopy-phase socket delta tracking
};

const char* strategy_name(SocketMigStrategy s);

/// Parallel data-path configuration (PMigrate-style). The default degree of 1
/// is byte-for-byte today's serial behavior; degree N > 1 shards the
/// dirty-page scan, serialization and socket subtraction across N deterministic
/// workers and stripes every src->dst frame across N TCP channels.
struct MigrationConfig {
  /// Worker count == transfer stream count. Clamped to [1, kMaxParallelism].
  int parallelism{1};
};

/// Options beyond the socket strategy.
struct MigrateOptions {
  SocketMigStrategy strategy{SocketMigStrategy::incremental_collective};
  /// true: precopy live migration (Figure 3). false: classic stop-and-copy —
  /// freeze immediately and transfer the whole image while the process is down
  /// (the baseline live migration is measured against).
  bool live{true};
  MigrationConfig config{};
};

struct MigrationStats {
  Pid pid{};
  std::string proc_name;
  SocketMigStrategy strategy{SocketMigStrategy::incremental_collective};
  bool live{true};
  int parallelism{1};
  net::Ipv4Addr src_node{};
  net::Ipv4Addr dst_node{};

  SimTime t_start{};
  SimTime t_freeze_begin{};
  SimTime t_resume{};

  int precopy_rounds{0};
  std::uint64_t precopy_channel_bytes{0};
  std::uint64_t precopy_socket_bytes{0};
  std::uint64_t freeze_channel_bytes{0};
  std::uint64_t freeze_socket_bytes{0};  // socket_state payloads in the freeze phase
  std::uint64_t socket_count{0};
  std::uint64_t captured{0};
  std::uint64_t reinjected{0};
  bool success{false};

  SimDuration freeze_time() const { return t_resume - t_freeze_begin; }
  SimDuration total_time() const { return t_resume - t_start; }
};

/// transd: installs translation filters on request (UDP control protocol).
class Transd {
 public:
  Transd(proc::Node& node, TranslationManager& translation, CostModel cm = {});

  void start();
  /// Ablation switch: when false, filters are installed without replacing the
  /// peer socket's destination-cache entry (reproduces the Section V-D bug).
  void set_fix_dst_cache(bool v) { fix_dst_cache_ = v; }

 private:
  void on_readable();

  proc::Node* node_;
  TranslationManager* translation_;
  CostModel cm_;
  std::shared_ptr<stack::UdpSocket> sock_;
  bool fix_dst_cache_{true};
};

class Migd {
 public:
  using DoneFn = std::function<void(const MigrationStats&)>;

  Migd(proc::Node& node, CostModel cm = {});
  ~Migd();

  /// Start listening for inbound migrations (TCP kMigdPort on the local address).
  void start();

  /// Migrate `pid` to the node whose cluster-local address is `dest_local`.
  /// Returns false if this migd is already busy sending.
  bool migrate(Pid pid, net::Ipv4Addr dest_local, MigrateOptions options,
               DoneFn done);

  bool busy_sending() const { return src_session_ != nullptr; }

  /// State probes for the model checker (src/mc): the source session's coarse
  /// phase (-1 when none is active; otherwise SourceSession::Phase as int) and
  /// the inbound connections this daemon still holds — those whose first
  /// frame is not sorted yet plus every channel of every migration's
  /// DestTransport, whether or not its session still runs. Quiescence after a
  /// migration — success or failure — means src_phase() == -1 and
  /// dest_session_count() == 0.
  int src_phase() const;
  std::size_t dest_session_count() const;

  proc::Node& node() const { return *node_; }
  CaptureManager& capture() { return capture_; }
  TranslationManager& translation() { return translation_; }
  Transd& transd() { return transd_; }
  const CostModel& cost_model() const { return cm_; }

  /// Ablation switch for the TCP timestamp adjustment on restore.
  void set_adjust_timestamps(bool v) { adjust_timestamps_ = v; }

 private:
  class SourceSession;
  class DestSession;
  friend class SourceSession;
  friend class DestSession;

  /// An accepted connection whose first frame has not been read yet.
  struct Unsorted {
    std::unique_ptr<FrameChannel> channel;
    bool rejected{false};  // answered and closing on a fresh event
  };

  void source_finished(const MigrationStats& stats);
  void detach_source_session();

  /// Sort an accepted connection by its first frame: mig_begin opens a
  /// session, stripe_hello attaches it to its migration's transport, and
  /// anything else is rejected.
  void on_accept_ready();
  void sort(FrameChannel& ch, MsgType type, BinaryReader& r);
  void reject(FrameChannel& ch, const char* why, bool notify_peer);
  Unsorted& unsorted(const FrameChannel& ch);
  std::unique_ptr<FrameChannel> take_unsorted(FrameChannel& ch);
  /// The transport of migration `mig_id`, created on first use.
  std::shared_ptr<DestTransport>& dest_transport(std::uint64_t mig_id);
  void begin_dest_session(const MigBegin& begin, std::shared_ptr<DestTransport> transport,
                          std::unique_ptr<FrameChannel> primary);

  proc::Node* node_;
  CostModel cm_;
  CaptureManager capture_;
  TranslationManager translation_;
  Transd transd_;
  bool adjust_timestamps_{true};

  stack::TcpSocket::Ptr listener_;
  std::shared_ptr<SourceSession> src_session_;
  std::vector<Unsorted> unsorted_;
  std::map<std::uint64_t, std::shared_ptr<DestTransport>> dst_transports_;
  DoneFn done_;
  std::uint64_t next_mig_id_{0};  // per-daemon counter; combined with the
                                  // node address for a cluster-unique mig id
};

}  // namespace dvemig::mig
