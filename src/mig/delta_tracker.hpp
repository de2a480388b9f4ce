// Incremental collective socket tracking (Section III-C).
//
// During the precopy loop, each socket's serialized sections are hashed and
// compared against the previous round; only changed sections are emitted. By the
// time the loop timeout is short, most sections no longer change — which is what
// collapses the freeze-phase byte count in Fig. 5c.
#pragma once

#include <array>
#include <unordered_map>

#include "src/mig/socket_image.hpp"

namespace dvemig::mig {

class SocketDeltaTracker {
 public:
  /// Serialize the sections of `img` that changed since the last call for this
  /// socket into `out` (prefixed with proto/flags headers as the socket_state
  /// message expects). Returns the section flags emitted (none == unchanged).
  SectionFlags emit_tcp(const TcpImage& img, BinaryWriter& out, bool force_all);
  SectionFlags emit_udp(const UdpImage& img, BinaryWriter& out, bool force_all);

 private:
  struct Entry {
    bool have{false};
    std::array<std::uint64_t, 3> hash{};  // per section, by SectionFlags bit
  };

  /// The record both protocols share. `sections(section)` must call
  /// `section(serialize, bit)` once per section of the protocol, in wire order.
  template <class Sections>
  SectionFlags emit(net::IpProto proto, std::uint64_t key, BinaryWriter& out,
                    bool force_all, const Sections& sections);

  std::unordered_map<std::uint64_t, Entry> entries_;
};

/// Destination-side staging: the latest version of every section received so far,
/// merged across precopy rounds and the freeze-phase dump.
struct StagedSocket {
  net::IpProto proto{net::IpProto::tcp};
  TcpImage tcp;
  UdpImage udp;
  bool have_static{false};
  bool have_dynamic{false};
  bool have_queues{false};

  bool complete() const {
    return proto == net::IpProto::tcp ? (have_static && have_dynamic && have_queues)
                                      : (have_static && have_queues);
  }
};

using SocketStaging = std::unordered_map<std::uint64_t, StagedSocket>;

/// Parse one socket record (as written by SocketDeltaTracker::emit_*) and merge it
/// into the staging area.
void read_socket_record(BinaryReader& r, SocketStaging& staging);

}  // namespace dvemig::mig
