// Packet model: explicit IPv4 + TCP/UDP header fields plus a payload.
//
// Headers are structured fields rather than raw bytes (the simulator never parses
// wire formats), but the transport checksum is a *real* internet checksum over the
// serialized pseudo-header + header + payload, so the translation filter's
// incremental checksum fixup (Section V-D of the paper) operates on genuine values.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/serial.hpp"
#include "src/net/address.hpp"

namespace dvemig::net {

enum class IpProto : std::uint8_t { tcp = 6, udp = 17 };

namespace tcp_flags {
inline constexpr std::uint8_t fin = 0x01;
inline constexpr std::uint8_t syn = 0x02;
inline constexpr std::uint8_t rst = 0x04;
inline constexpr std::uint8_t psh = 0x08;
inline constexpr std::uint8_t ack = 0x10;
}  // namespace tcp_flags

struct TcpHeader {
  Port sport{0};
  Port dport{0};
  std::uint32_t seq{0};
  std::uint32_t ack{0};
  std::uint8_t flags{0};
  std::uint32_t window{65535};
  // TCP timestamps option (always present in this stack, as in modern Linux).
  std::uint32_t tsval{0};
  std::uint32_t tsecr{0};

  bool has(std::uint8_t f) const { return (flags & f) != 0; }
};

struct UdpHeader {
  Port sport{0};
  Port dport{0};
};

using dvemig::payload_bytes_materialized;
using dvemig::payload_bytes_summed;

struct Packet {
  // Each link hop moves a packet into and out of a link slot (DESIGN.md
  // §12.9), so the members are ordered to pack into 88 bytes: headers,
  // metadata, then the payload.
  Ipv4Addr src{};
  Ipv4Addr dst{};
  IpProto proto{IpProto::udp};
  std::uint8_t ttl{64};
  std::uint16_t checksum{0};  // transport checksum (pseudo-header included)
  TcpHeader tcp{};
  UdpHeader udp{};

  // --- link-layer / kernel metadata, NOT part of the wire image or checksum ---

  /// Resolved next-hop the frame is actually addressed to. Normally equals `dst`,
  /// but it is filled from the sending socket's *destination cache entry* — so after
  /// a translation filter rewrites `dst`, a stale cache entry still steers the frame
  /// to the old node (the Section V-D bug) until the cache entry is replaced too.
  Ipv4Addr link_dst{};  // 0.0.0.0 = "route by dst"

  std::uint64_t id{0};  // trace id, unique per packet creation

  /// sock_id of the local socket that emitted this packet (dst-cache key), 0 if none.
  std::uint64_t origin_sock_id{0};

  // --- the payload ---

  // Copy-on-write: packet copies share the blocks and the checksum memo.
  // The single-IP router broadcasts every client packet to all N nodes
  // (Section V-B) and the capture queue holds stolen packets until
  // reinjection; none of them copies the bytes, and a hook rewriting one copy
  // detaches that copy only.
  Bytes payload;

  Port sport() const { return proto == IpProto::tcp ? tcp.sport : udp.sport; }
  Port dport() const { return proto == IpProto::tcp ? tcp.dport : udp.dport; }

  /// Bytes on the wire: Ethernet framing + IP header + transport header + payload.
  /// TCP includes the 12-byte timestamps option (10 bytes + padding).
  std::size_t wire_size() const;

  /// Transport header + payload only (what the bandwidth-independent parts care about).
  std::size_t transport_size() const;

  std::string describe() const;
};

/// Compute the transport checksum over pseudo-header + header fields + payload.
/// The payload's part is its memoized `Bytes::sum()`.
std::uint16_t compute_checksum(const Packet& p);

/// True when p.checksum matches compute_checksum(p).
bool checksum_ok(const Packet& p);

/// Fill in checksum and a fresh trace id.
void finalize(Packet& p);

/// Make packets; finalize() is applied.
Packet make_udp(Endpoint from, Endpoint to, Bytes payload);
Packet make_tcp(Endpoint from, Endpoint to, TcpHeader hdr, Bytes payload);

}  // namespace dvemig::net
