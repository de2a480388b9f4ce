#include "src/mig/delta_tracker.hpp"

#include <bit>

namespace dvemig::mig {

// TCP and UDP records go through one emitter, which serializes straight into
// the unified transfer buffer (the paper's "one buffer, one transfer"
// collective design, DESIGN.md §12): the record header is written blind with
// a zero flags placeholder, each section is serialized at the buffer tail and
// hashed *in place*, and a section that turns out unchanged is rolled back
// with truncate_to. No per-section scratch writers, no second copy.

template <class Sections>
SectionFlags SocketDeltaTracker::emit(net::IpProto proto, std::uint64_t key,
                                      BinaryWriter& out, bool force_all,
                                      const Sections& sections) {
  const std::size_t record_at = out.mark();
  out.u8(static_cast<std::uint8_t>(proto));
  out.u64(key);
  const std::size_t flags_at = out.mark();
  out.u8(0);  // SectionFlags, patched below once known

  Entry& e = entries_[key];
  const bool keep_all = force_all || !e.have;
  SectionFlags flags = SectionFlags::none;
  sections([&](const auto& serialize, SectionFlags bit) {
    std::uint64_t& stored_hash =
        e.hash[static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(bit)))];
    const std::size_t at = out.mark();
    serialize();
    const std::uint64_t h = fnv1a(out.span_from(at));
    if (keep_all || h != stored_hash) {
      flags = flags | bit;
    } else {
      out.truncate_to(at);  // unchanged since last round: not sent
    }
    stored_hash = h;  // a forced dump re-bases the next round's compare too
  });
  e.have = true;

  if (flags == SectionFlags::none) {
    out.truncate_to(record_at);  // nothing changed: drop the header too
    return flags;
  }
  out.patch_u8(static_cast<std::uint8_t>(flags), flags_at);
  return flags;
}

SectionFlags SocketDeltaTracker::emit_tcp(const TcpImage& img, BinaryWriter& out,
                                          bool force_all) {
  return emit(net::IpProto::tcp, img.src_sock_key, out, force_all,
              [&](const auto& section) {
                section([&] { img.serialize_static(out); }, SectionFlags::stat);
                section([&] { img.serialize_dynamic(out); }, SectionFlags::dyn);
                section([&] { img.serialize_queues(out); }, SectionFlags::queues);
              });
}

SectionFlags SocketDeltaTracker::emit_udp(const UdpImage& img, BinaryWriter& out,
                                          bool force_all) {
  return emit(net::IpProto::udp, img.src_sock_key, out, force_all,
              [&](const auto& section) {
                section([&] { img.serialize_static(out); }, SectionFlags::stat);
                section([&] { img.serialize_queues(out); }, SectionFlags::queues);
              });
}

void read_socket_record(BinaryReader& r, SocketStaging& staging) {
  const auto proto = static_cast<net::IpProto>(r.u8());
  const std::uint64_t key = r.u64();
  const auto flags = static_cast<SectionFlags>(r.u8());

  StagedSocket& staged = staging[key];
  staged.proto = proto;
  if (proto == net::IpProto::tcp) {
    if (flags & SectionFlags::stat) {
      staged.tcp.deserialize_static(r);
      staged.have_static = true;
    }
    if (flags & SectionFlags::dyn) {
      staged.tcp.deserialize_dynamic(r);
      staged.have_dynamic = true;
    }
    if (flags & SectionFlags::queues) {
      staged.tcp.deserialize_queues(r);
      staged.have_queues = true;
    }
  } else {
    if (flags & SectionFlags::stat) {
      staged.udp.deserialize_static(r);
      staged.have_static = true;
    }
    if (flags & SectionFlags::queues) {
      staged.udp.deserialize_queues(r);
      staged.have_queues = true;
    }
  }
}

}  // namespace dvemig::mig
