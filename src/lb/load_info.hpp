// Load information exchanged by the conductor daemons (information policy,
// Section IV-D: periodic broadcast doubling as a heartbeat), and the payload of
// their other datagrams.
#pragma once

#include <cstdint>

#include "src/common/serial.hpp"
#include "src/common/types.hpp"
#include "src/net/address.hpp"

namespace dvemig::lb {

struct LoadInfo {
  net::Ipv4Addr node_local{};  // sender's cluster-local address
  std::uint32_t node_key{0};   // NodeId, for logging
  double utilization{0};       // capped [0, 1]
  double demand{0};            // uncapped
  double capacity_cores{0};
  std::uint32_t process_count{0};
  std::int64_t sent_at_ns{0};

  template <class Io, class Self>
  static void fields(Io& io, Self& info) {
    io.u32(info.node_local.value);
    io.u32(info.node_key);
    io.f64(info.utilization);
    io.f64(info.demand);
    io.f64(info.capacity_cores);
    io.u32(info.process_count);
    io.i64(info.sent_at_ns);
  }
  void serialize(BinaryWriter& w) const { put(w, *this); }
};

/// Every conductor datagram but load_info, after its type byte: the offer it
/// concerns and a value (an offer's estimated cores, 0 for the other types).
struct CtrlMsg {
  std::uint64_t offer_id{0};
  double value{0};

  template <class Io, class Self>
  static void fields(Io& io, Self& m) {
    io.u64(m.offer_id);
    io.f64(m.value);
  }
};

struct ProcessLoad {
  Pid pid{};
  double cores{0};
};

}  // namespace dvemig::lb
