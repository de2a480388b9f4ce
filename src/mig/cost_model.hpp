// Calibration constants for the migration mechanism.
//
// Everything the discrete-event simulation cannot derive from first principles
// (CPU costs of kernel work, the paper's loop-control parameters) is gathered here,
// as promised in DESIGN.md §5. Network costs are NOT here — they emerge from the
// simulated links and TCP stack.
//
// Values are chosen to be plausible for the paper's hardware (2.4 GHz dual-core
// Opteron, Linux 2.6, GbE) and produce freeze-time/bytes curves of the same shape
// and magnitude as Figures 5b/5c.
#pragma once

#include <cstdint>

#include "src/common/types.hpp"

namespace dvemig::mig {

struct CostModel {
  // --- per-socket kernel work ---
  /// Full state subtraction of one socket (unhash, walk queues, copy fields).
  std::int64_t socket_subtract_ns{12'000};
  /// Additional serialization cost per byte subtracted.
  double per_byte_subtract_ns{0.35};
  /// Incremental tracking: hash/compare one socket's sections in a precopy round.
  std::int64_t socket_delta_check_ns{2'200};
  /// Restore one socket on the destination (allocate, fill, rehash, timers).
  std::int64_t socket_restore_ns{8'000};
  double per_byte_restore_ns{0.25};
  /// Install one capture filter on the destination.
  std::int64_t capture_install_ns{1'500};
  /// Install one translation filter on an in-cluster peer.
  std::int64_t translation_install_ns{2'500};

  // --- memory / process work ---
  /// Gather one dirty page into the transfer buffer.
  std::int64_t page_copy_ns{700};
  /// Serialize/delta-encode one byte of transfer payload in the parallel
  /// pipeline's middle stage. Only charged when MigrationConfig::parallelism
  /// > 1 — the serial (degree-1) path folds this into page_copy_ns, keeping
  /// its cost profile byte-for-byte identical to the pre-parallel code.
  double per_byte_serialize_ns{0.02};
  /// Freeze-phase process metadata work (fd table walk, thread regs, barrier).
  std::int64_t process_meta_ns{150'000};
  /// Destination-side process reconstruction (before socket attach).
  std::int64_t restore_meta_ns{200'000};
  /// Checkpoint-signal delivery and thread barrier entry at freeze start.
  std::int64_t signal_roundtrip_ns{60'000};

  // --- precopy loop control (Figure 3) ---
  std::int64_t initial_loop_timeout_ns{320'000'000};  // 320 ms
  double loop_decay{0.5};                             // timeout halves per round
  std::int64_t freeze_threshold_ns{20'000'000};       // the paper's 20 ms
  int max_precopy_rounds{16};

  /// Upper bound on one socket_state frame's payload. The collective
  /// strategies serialize every socket into one unified buffer; past ~10^5
  /// connections that buffer would outgrow the channel's kMaxFrameLen sanity
  /// cap, so the emit loop cuts it into self-contained frames (each with its
  /// own record-count prefix) at record boundaries. A dump that fits in one
  /// chunk — the common case — ships exactly as before chunking existed.
  std::int64_t socket_chunk_bytes{64LL * 1024 * 1024};

  /// Source-side watchdog on the whole migration. The protocol has no
  /// frame-level retransmission, so a lost control frame (capture_enabled,
  /// socket_ack, resume_done) would otherwise leave the source waiting forever
  /// with the process frozen — found by dvemig-mc's drop-fault exploration.
  /// Must comfortably exceed any legitimate migration duration.
  std::int64_t migration_watchdog_ns{30'000'000'000};  // 30 s

  SimDuration subtract_cost(std::size_t sockets, std::size_t bytes) const {
    return SimTime::nanoseconds(
        static_cast<std::int64_t>(sockets) * socket_subtract_ns +
        static_cast<std::int64_t>(static_cast<double>(bytes) * per_byte_subtract_ns));
  }
  /// per_byte_serialize_ns as charged at `workers` parallelism: nothing at
  /// degree 1, whose page_copy_ns already covers serialization.
  double serialize_ns_per_byte(int workers) const {
    return workers == 1 ? 0.0 : per_byte_serialize_ns;
  }
  SimDuration restore_cost(std::size_t sockets, std::size_t bytes) const {
    return SimTime::nanoseconds(
        static_cast<std::int64_t>(sockets) * socket_restore_ns +
        static_cast<std::int64_t>(static_cast<double>(bytes) * per_byte_restore_ns));
  }
};

/// Synthetic sizes of the kernel structures a real dump carries (Linux 2.6):
/// `struct tcp_sock` + inet/request/bind linkage + per-fd checkpoint metadata is
/// a few KiB of mostly-static fields, and each queued `struct sk_buff` carries
/// ≈ 240 B of header beyond its payload. These pads reproduce the paper's
/// ≈3.5 KiB/connection full-dump footprint (Fig. 5c); the incremental strategy
/// wins precisely because the static parts stop changing.
inline constexpr std::size_t kTcpSockStructPad = 2880;
inline constexpr std::size_t kUdpSockStructPad = 760;
inline constexpr std::size_t kSkbStructPad = 240;

}  // namespace dvemig::mig
