// Packet model: explicit IPv4 + TCP/UDP header fields plus a payload.
//
// Headers are structured fields rather than raw bytes (the simulator never parses
// wire formats), but the transport checksum is a *real* internet checksum over the
// serialized pseudo-header + header + payload, so the translation filter's
// incremental checksum fixup (Section V-D of the paper) operates on genuine values.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
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

/// Copy-on-write payload bytes, with their checksum sum memoized.
///
/// Copying a Packet shares the payload allocation instead of cloning it: the
/// single-IP router broadcasts every client packet to all N nodes (Section
/// V-B), and the capture queue stores stolen packets until reinjection — both
/// were N deep copies of the same bytes. Readers see plain byte access;
/// mutation (`operator[]`, `push_back`) detaches from any sharers first, so a
/// hook rewriting one broadcast copy never bleeds into the others.
///
/// The shared block also memoizes `sum()`, the payload's ones'-complement sum,
/// so the sender's `finalize`, every broadcast copy's receive check and every
/// reinjection reuse one pass over the bytes. Every mutable accessor clears
/// the memo, the sole-owner path (no copy made) included. A mutable byte
/// reference held across a checksum is unsupported: a write through it after
/// the memo refilled leaves the memo stale.
class SharedPayload {
 public:
  SharedPayload() = default;
  SharedPayload(Buffer b)  // NOLINT(google-explicit-constructor)
      : block_(b.empty() ? nullptr : std::make_shared<Block>(std::move(b))) {}

  std::size_t size() const { return block_ ? block_->bytes.size() : 0; }
  bool empty() const { return size() == 0; }
  std::span<const std::uint8_t> view() const {
    return block_ ? std::span<const std::uint8_t>(block_->bytes)
                  : std::span<const std::uint8_t>{};
  }
  operator std::span<const std::uint8_t>() const {  // NOLINT
    return view();
  }
  const std::uint8_t& operator[](std::size_t i) const { return block_->bytes[i]; }

  /// Mutable access: detaches from sharers first (copy-on-write).
  std::uint8_t& operator[](std::size_t i) { return (*detach())[i]; }
  void push_back(std::uint8_t b) { detach()->push_back(b); }

  /// `checksum_accumulate(view(), 0)`: the sum as if the bytes began at an
  /// even offset of the checksummed stream. Summed on first use per block.
  std::uint32_t sum() const;

  /// Deep copy into an owned Buffer (e.g. a socket receive queue keeping the
  /// bytes past the packet's lifetime).
  Buffer copy() const { return block_ ? block_->bytes : Buffer{}; }

  /// Take the bytes out, leaving the payload empty — moves when this is the
  /// sole owner, copies otherwise.
  Buffer take() {
    if (!block_) return {};
    Buffer out = block_.use_count() == 1 ? std::move(block_->bytes) : block_->bytes;
    block_.reset();
    return out;
  }

  /// Introspection for tests: do two payloads alias one allocation?
  bool shares_storage_with(const SharedPayload& o) const {
    return block_ != nullptr && block_ == o.block_;
  }

 private:
  static constexpr std::uint32_t kNoSum = 0xFFFFFFFF;  // sums fold to 16 bits

  struct Block {
    explicit Block(Buffer b) : bytes(std::move(b)) {}
    Buffer bytes;
    std::uint32_t sum{kNoSum};
  };

  Buffer* detach() {
    if (!block_) {
      block_ = std::make_shared<Block>(Buffer{});
    } else if (block_.use_count() > 1) {
      block_ = std::make_shared<Block>(block_->bytes);
    }
    block_->sum = kNoSum;
    return &block_->bytes;
  }

  std::shared_ptr<Block> block_;
};

/// Payload bytes summed into a `SharedPayload` memo since the process began:
/// each fill adds the payload's size once, so with every copy reusing the
/// memo this equals the payload bytes created.
std::uint64_t payload_bytes_summed();

struct Packet {
  Ipv4Addr src{};
  Ipv4Addr dst{};
  IpProto proto{IpProto::udp};
  std::uint8_t ttl{64};
  TcpHeader tcp{};
  UdpHeader udp{};
  SharedPayload payload;      // COW: packet copies share the allocation
  std::uint16_t checksum{0};  // transport checksum (pseudo-header included)
  std::uint64_t id{0};        // trace id, unique per packet creation

  // --- link-layer / kernel metadata, NOT part of the wire image or checksum ---

  /// Resolved next-hop the frame is actually addressed to. Normally equals `dst`,
  /// but it is filled from the sending socket's *destination cache entry* — so after
  /// a translation filter rewrites `dst`, a stale cache entry still steers the frame
  /// to the old node (the Section V-D bug) until the cache entry is replaced too.
  Ipv4Addr link_dst{};  // 0.0.0.0 = "route by dst"

  /// sock_id of the local socket that emitted this packet (dst-cache key), 0 if none.
  std::uint64_t origin_sock_id{0};

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
/// The payload's part is its memoized `SharedPayload::sum()`.
std::uint16_t compute_checksum(const Packet& p);

/// True when p.checksum matches compute_checksum(p).
bool checksum_ok(const Packet& p);

/// Fill in checksum and a fresh trace id.
void finalize(Packet& p);

/// Make packets; finalize() is applied.
Packet make_udp(Endpoint from, Endpoint to, Buffer payload);
Packet make_tcp(Endpoint from, Endpoint to, TcpHeader hdr, Buffer payload);

}  // namespace dvemig::net
