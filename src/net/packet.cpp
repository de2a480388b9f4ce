#include "src/net/packet.hpp"

#include <array>

#include "src/net/checksum.hpp"

namespace dvemig::net {

namespace {

// Ethernet II header (14) + FCS (4) + preamble/SFD (8) + inter-frame gap (12).
constexpr std::size_t kEthernetOverhead = 38;
constexpr std::size_t kIpHeader = 20;
constexpr std::size_t kTcpHeader = 20;
constexpr std::size_t kTcpTimestampOption = 12;
constexpr std::size_t kUdpHeader = 8;

std::uint64_t next_packet_id() {
  static std::uint64_t counter = 0;
  return ++counter;
}

// Widest checksum header: 12 pseudo-header + 25 TCP header-field bytes.
constexpr std::size_t kMaxChecksumHeader = 40;

std::uint32_t swap16(std::uint32_t v) { return ((v & 0xFF) << 8) | (v >> 8); }

}  // namespace

std::size_t Packet::transport_size() const {
  const std::size_t hdr =
      proto == IpProto::tcp ? kTcpHeader + kTcpTimestampOption : kUdpHeader;
  return hdr + payload.size();
}

std::size_t Packet::wire_size() const {
  // Minimum Ethernet frame is 64 bytes (incl. FCS); short packets are padded.
  const std::size_t frame = kIpHeader + transport_size() + 18;  // eth hdr + FCS
  return (frame < 64 ? 64 : frame) + (kEthernetOverhead - 18);
}

std::string Packet::describe() const {
  std::string s = proto == IpProto::tcp ? "TCP " : "UDP ";
  s += src.to_string() + ":" + std::to_string(sport()) + " -> " + dst.to_string() + ":" +
       std::to_string(dport());
  if (proto == IpProto::tcp) {
    s += " [";
    if (tcp.has(tcp_flags::syn)) s += "S";
    if (tcp.has(tcp_flags::ack)) s += "A";
    if (tcp.has(tcp_flags::fin)) s += "F";
    if (tcp.has(tcp_flags::rst)) s += "R";
    if (tcp.has(tcp_flags::psh)) s += "P";
    s += "] seq=" + std::to_string(tcp.seq) + " ack=" + std::to_string(tcp.ack);
  }
  s += " len=" + std::to_string(payload.size());
  return s;
}

// The checksum input stream is the historical BinaryWriter-based encoding:
// addresses big-endian as on the wire (so the RFC 1624 incremental update over
// a 32-bit address value composes with the full checksum), all other header
// fields little-endian, then the payload. The header fields are staged into a
// small array and summed by the same kernel as the payload; the payload's
// memoized sum was taken as if it began at an even offset, so after the odd
// 37-byte TCP header it is byte-swapped (RFC 1071 §2(B)).
std::uint16_t compute_checksum(const Packet& p) {
  std::array<std::uint8_t, kMaxChecksumHeader> hdr;
  std::size_t n = 0;
  const auto byte = [&](std::uint8_t b) { hdr[n++] = b; };
  const auto be32 = [&](std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) byte(static_cast<std::uint8_t>(v >> shift));
  };
  const auto le16 = [&](std::uint16_t v) {
    byte(static_cast<std::uint8_t>(v));
    byte(static_cast<std::uint8_t>(v >> 8));
  };
  const auto le32 = [&](std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) byte(static_cast<std::uint8_t>(v >> shift));
  };
  // Pseudo-header.
  be32(p.src.value);
  be32(p.dst.value);
  byte(0);
  byte(static_cast<std::uint8_t>(p.proto));
  le16(static_cast<std::uint16_t>(p.transport_size()));
  // Transport header (checksum field itself excluded, as on the wire).
  if (p.proto == IpProto::tcp) {
    le16(p.tcp.sport);
    le16(p.tcp.dport);
    le32(p.tcp.seq);
    le32(p.tcp.ack);
    byte(p.tcp.flags);
    le32(p.tcp.window);
    le32(p.tcp.tsval);
    le32(p.tcp.tsecr);
  } else {
    le16(p.udp.sport);
    le16(p.udp.dport);
    le16(static_cast<std::uint16_t>(p.payload.size()));
  }
  const std::uint32_t payload = p.payload.sum();
  return fold_checksum(checksum_accumulate(std::span<const std::uint8_t>(hdr.data(), n),
                                           n % 2 == 0 ? payload : swap16(payload)));
}

bool checksum_ok(const Packet& p) { return p.checksum == compute_checksum(p); }

void finalize(Packet& p) {
  p.checksum = compute_checksum(p);
  p.id = next_packet_id();
}

Packet make_udp(Endpoint from, Endpoint to, Bytes payload) {
  Packet p;
  p.src = from.addr;
  p.dst = to.addr;
  p.proto = IpProto::udp;
  p.udp = UdpHeader{from.port, to.port};
  p.payload = std::move(payload);
  finalize(p);
  return p;
}

Packet make_tcp(Endpoint from, Endpoint to, TcpHeader hdr, Bytes payload) {
  Packet p;
  p.src = from.addr;
  p.dst = to.addr;
  p.proto = IpProto::tcp;
  hdr.sport = from.port;
  hdr.dport = to.port;
  p.tcp = hdr;
  p.payload = std::move(payload);
  finalize(p);
  return p;
}

}  // namespace dvemig::net
