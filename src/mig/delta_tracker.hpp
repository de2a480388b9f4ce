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

  /// The record both protocols share, walking `Image::sections`.
  template <class Image>
  SectionFlags emit(net::IpProto proto, const Image& img, BinaryWriter& out,
                    bool force_all);

  std::unordered_map<std::uint64_t, Entry> entries_;
};

/// Destination-side staging: the latest version of every section received so far,
/// merged across precopy rounds and the freeze-phase dump.
struct StagedSocket {
  net::IpProto proto{net::IpProto::tcp};
  TcpImage tcp;
  UdpImage udp;
  SectionFlags have{SectionFlags::none};

  bool complete() const {
    return have == (proto == net::IpProto::tcp ? kAllSections<TcpImage>
                                               : kAllSections<UdpImage>);
  }
};

using SocketStaging = std::unordered_map<std::uint64_t, StagedSocket>;

/// Parse one socket record (as written by SocketDeltaTracker::emit_*) and merge it
/// into the staging area. False if the record is malformed: an unknown proto
/// byte, a section bit the protocol does not have, a section that runs past
/// the data, or a TCP state byte (its own or a nested child's) past time_wait. Never aborts; after a false return the reader and the staged
/// socket are unspecified.
bool read_socket_record(BinaryReader& r, SocketStaging& staging);

}  // namespace dvemig::mig
