#include "src/mig/delta_tracker.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

namespace dvemig::mig {

// TCP and UDP records go through one emitter, which serializes straight into
// the unified transfer buffer (the paper's "one buffer, one transfer"
// collective design, DESIGN.md §12): the record header is written blind with
// a zero flags placeholder, each section is serialized at the buffer tail and
// hashed *in place* (its struct pads as runs, never expanded), and a section
// that turns out unchanged is rolled back with truncate_to. No per-section
// scratch writers, no second copy.

namespace {

/// proto | key | SectionFlags, ahead of the sections the flags name.
struct RecordHeader {
  net::IpProto proto{net::IpProto::tcp};
  std::uint64_t key{0};
  SectionFlags flags{SectionFlags::none};

  template <class Io, class Self>
  static void fields(Io& io, Self& h) {
    io.u8(h.proto);
    io.u64(h.key);
    io.u8(h.flags);
  }
};

/// False if the image or a nested accept-queue child carries a state byte
/// that names no TCP state.
bool states_valid(const TcpImage& img) {
  return img.state <= stack::TcpState::time_wait &&
         std::ranges::all_of(img.accept_children, states_valid);
}

}  // namespace

template <class Image>
SectionFlags SocketDeltaTracker::emit(net::IpProto proto, const Image& img,
                                      BinaryWriter& out, bool force_all) {
  const std::size_t record_at = out.mark();
  // Flags go out as none and are patched below once known.
  put(out, RecordHeader{proto, img.src_sock_key, SectionFlags::none});
  const std::size_t flags_at = out.mark() - 1;

  Entry& e = entries_[img.src_sock_key];
  const bool keep_all = force_all || !e.have;
  SectionFlags flags = SectionFlags::none;
  Put io(out);
  Image::sections([&](SectionFlags bit, const auto& fields) {
    std::uint64_t& stored_hash =
        e.hash[static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(bit)))];
    const std::size_t at = out.mark();
    fields(io, img);
    const std::uint64_t h = out.hash_from(at);
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
  return emit(net::IpProto::tcp, img, out, force_all);
}

SectionFlags SocketDeltaTracker::emit_udp(const UdpImage& img, BinaryWriter& out,
                                          bool force_all) {
  return emit(net::IpProto::udp, img, out, force_all);
}

bool read_socket_record(BinaryReader& r, SocketStaging& staging) {
  Get io = Get::checked(r);
  RecordHeader h;
  io.rec(h);
  if (!io.ok() || (h.proto != net::IpProto::tcp && h.proto != net::IpProto::udp)) {
    return false;
  }
  StagedSocket& staged = staging[h.key];
  staged.proto = h.proto;
  auto merge = [&](auto& img) {
    using Image = std::remove_reference_t<decltype(img)>;
    if ((h.flags | kAllSections<Image>) != kAllSections<Image>) return false;
    Image::sections([&](SectionFlags bit, const auto& fields) {
      if (!(h.flags & bit)) return;
      fields(io, img);
      staged.have = staged.have | bit;
    });
    return io.ok();
  };
  if (h.proto == net::IpProto::udp) return merge(staged.udp);
  return merge(staged.tcp) && states_valid(staged.tcp);
}

}  // namespace dvemig::mig
