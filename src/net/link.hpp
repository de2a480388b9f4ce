// Unidirectional timed link.
//
// Delivery time = serialization (wire_size / bandwidth) queued FIFO behind earlier
// transmissions, plus propagation latency. This is what prices every transfer in the
// experiments: the freeze-phase socket buffer of Fig. 5c literally rides these links.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/packet.hpp"
#include "src/sim/engine.hpp"

namespace dvemig::net {

/// Receives packets by rvalue reference: each stage of a hop (link, switch,
/// router, host) passes the one packet on, and only a stage that keeps it
/// moves from it.
using PacketSink = std::function<void(Packet&&)>;

struct LinkConfig {
  double bandwidth_bps{1e9};                         // GbE by default
  SimDuration latency{SimTime::microseconds(25)};    // one-way propagation + switching
  // Link aggregation (bonded NICs): each switch port carries `rails` independent
  // physical links, each at the full `bandwidth_bps`. Flows are pinned to a rail
  // by a deterministic 5-tuple hash (net::Switch), so one TCP stream never
  // exceeds a single rail's bandwidth — parallelism requires parallel flows,
  // exactly as on real bonded hardware. Only net::Switch honours this field; a
  // bare Link is always a single rail.
  int rails{1};
};

class Link {
 public:
  /// Process-wide fault-injection seam used by the model checker (src/mc).
  /// Consulted once per transmitted packet; the verdict can drop it, deliver a
  /// second copy, and/or add delivery delay (reordering it behind later
  /// traffic). One hook at most; production code never installs one.
  struct FaultVerdict {
    bool drop{false};
    bool duplicate{false};
    SimDuration extra_delay{SimTime::zero()};
  };
  class FaultHook {
   public:
    virtual ~FaultHook() = default;
    virtual FaultVerdict on_transmit(const Link& link, const Packet& p) = 0;
  };
  static void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  static FaultHook* fault_hook() { return fault_hook_; }

  Link(sim::Engine& engine, LinkConfig config) : engine_(&engine), config_(config) {}
  // Pending delivery events hold the link's address.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Queue a packet for transmission. Until it arrives the link owns it: the
  /// packet waits in one of the link's slots, and its delivery event holds only
  /// the slot index (DESIGN.md §12.9). An event the engine drops unfired
  /// (Engine::clear(), ~Engine) leaves its packet parked until the link dies.
  void transmit(Packet&& p);

  const LinkConfig& config() const { return config_; }

  // Cumulative statistics.
  std::uint64_t packets_sent() const { return packets_; }
  std::uint64_t bytes_sent() const { return bytes_; }

  /// Packets parked in the link's slots, awaiting their delivery events.
  std::size_t in_flight() const { return parked_.size() - free_.size(); }

 private:
  static inline FaultHook* fault_hook_ = nullptr;

  /// Park `p` in a free slot and schedule its delivery at `when`.
  void schedule_delivery(SimTime when, Packet&& p);
  /// Free `slot` and hand its packet to the sink.
  void deliver(std::uint32_t slot);

  sim::Engine* engine_;
  LinkConfig config_;
  PacketSink sink_;
  SimTime busy_until_{SimTime::zero()};
  std::uint64_t packets_{0};
  std::uint64_t bytes_{0};
  // In-flight packets by slot; a free slot holds a moved-from packet.
  std::vector<Packet> parked_;
  std::vector<std::uint32_t> free_;
};

}  // namespace dvemig::net
