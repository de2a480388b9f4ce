#include "src/dve/client.hpp"

#include <algorithm>

namespace dvemig::dve {

ClientHost::ClientHost(sim::Engine& engine, net::BroadcastRouter& router,
                       net::Ipv4Addr addr, std::string name,
                       SimDuration clock_offset)
    : router_(&router), addr_(addr), stack_(engine, std::move(name), clock_offset) {
  net::PacketSink tx =
      router.attach_client(addr, [this](net::Packet&& p) { stack_.rx(std::move(p)); });
  stack_.add_interface(addr, std::move(tx));
}

ClientHost::~ClientHost() { router_->detach_client(addr_); }

// ---------------------------------------------------------------- UdpGameClient

UdpGameClient::UdpGameClient(ClientHost& host, net::Endpoint server,
                             SimDuration cmd_period)
    : host_(&host), server_(server), cmd_period_(cmd_period) {}

void UdpGameClient::start() {
  sock_ = host_->stack().make_udp();
  sock_->bind(host_->addr(), 0);
  sock_->connect(server_);
  sock_->set_on_readable([this] { on_readable(); });
  send_command();
}

void UdpGameClient::stop() {
  cmd_timer_.cancel();
  if (sock_) sock_->close();
}

void UdpGameClient::send_command() {
  BinaryWriter w;
  w.reserve(4 + 48);
  w.u32(static_cast<std::uint32_t>(commands_sent_));
  w.repeat(48, 0x7E);  // usercmd-sized payload
  sock_->send(w.take());
  commands_sent_ += 1;
  cmd_timer_ = host_->stack().engine().schedule_after(cmd_period_,
                                                      [this] { send_command(); });
}

void UdpGameClient::on_readable() {
  while (auto dgram = sock_->recv()) {
    BinaryReader r(dgram->data);
    const std::uint32_t seq = r.u32();
    received_.push_back(PacketRecord{host_->stack().engine().now(), seq});
  }
}

SimDuration UdpGameClient::max_gap(SimTime from, SimTime to) const {
  SimDuration best = SimTime::zero();
  const PacketRecord* prev = nullptr;
  for (const PacketRecord& rec : received_) {
    if (rec.t < from || rec.t > to) continue;
    if (prev != nullptr && rec.t - prev->t > best) best = rec.t - prev->t;
    prev = &rec;
  }
  return best;
}

std::size_t UdpGameClient::missing_snapshots() const {
  if (received_.empty()) return 0;
  std::size_t missing = 0;
  for (std::size_t i = 1; i < received_.size(); ++i) {
    const std::uint32_t a = received_[i - 1].seq;
    const std::uint32_t b = received_[i].seq;
    if (b > a + 1) missing += b - a - 1;
  }
  return missing;
}

// ---------------------------------------------------------------- TcpDveClient

TcpDveClient::TcpDveClient(ClientHost& host, net::Ipv4Addr server_ip)
    : host_(&host), server_ip_(server_ip) {}

void TcpDveClient::connect_to_zone(ZoneId zone) {
  disconnect();
  zone_ = zone;
  sock_ = host_->stack().make_tcp();
  sock_->bind(host_->addr(), 0);
  sock_->set_on_readable([this] { on_readable(); });
  sock_->set_on_reset([this] { resets_seen_ += 1; });
  sock_->connect(net::Endpoint{server_ip_, zone_port(zone)});
  if (active_period_ > SimTime::zero()) {
    send_timer_ = host_->stack().engine().schedule_after(active_period_,
                                                         [this] { send_message(); });
  }
}

void TcpDveClient::disconnect() {
  send_timer_.cancel();
  if (sock_) {
    sock_->close();
    sock_.reset();
  }
  rx_ = Bytes{};
}

bool TcpDveClient::connected() const {
  return sock_ && sock_->state() == stack::TcpState::established;
}

void TcpDveClient::set_active(SimDuration period, std::size_t bytes) {
  active_period_ = period;
  active_bytes_ = bytes;
}

void TcpDveClient::send_message() {
  if (!sock_) return;
  if (sock_->state() == stack::TcpState::established) {
    sock_->send(Buffer(active_bytes_, 0x6B));
  }
  send_timer_ = host_->stack().engine().schedule_after(active_period_,
                                                       [this] { send_message(); });
}

void TcpDveClient::on_readable() {
  Bytes chunk = sock_->read_bytes();
  bytes_received_ += chunk.size();
  rx_.append(std::move(chunk));
  // Updates are length-prefixed: u32 len | u32 seq | padding.
  cut_messages(rx_, [this](Bytes&& update) {
    if (update.size() >= 4) {
      BinaryReader r(update);
      const std::uint32_t seq = r.u32();
      updates_received_ += 1;
      if (record_) {
        records_.push_back(PacketRecord{host_->stack().engine().now(), seq});
      }
    }
    return true;
  });
}

}  // namespace dvemig::dve
