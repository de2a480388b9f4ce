#include "src/lb/conductor.hpp"

#include "src/common/log.hpp"
#include "src/obs/metrics.hpp"

namespace dvemig::lb {

namespace {

struct LbMetrics {
  obs::Counter& initiated;
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Counter& solicits;
  obs::Counter& heartbeats;
  obs::Gauge& cluster_avg;

  static LbMetrics& get() {
    auto& reg = obs::Registry::instance();
    static LbMetrics m{
        reg.counter("lb.migrations_initiated"),
        reg.counter("lb.offers_accepted"),
        reg.counter("lb.offers_rejected"),
        reg.counter("lb.solicits_sent"),
        reg.counter("lb.heartbeats_sent"),
        reg.gauge("lb.cluster_avg_utilization"),
    };
    return m;
  }
};

}  // namespace

Conductor::Conductor(proc::Node& node, mig::Migd& migd, PolicyConfig cfg)
    : node_(&node), migd_(&migd), monitor_(node), cfg_(cfg) {}

void Conductor::start() {
  DVEMIG_EXPECTS(!running_);
  running_ = true;
  sock_ = node_->stack().make_udp();
  sock_->bind(node_->local_addr(), kCondPort);
  sock_->set_on_readable([this] { on_readable(); });

  // Discovery: the first broadcast announces this node; answers arrive as the
  // peers' own periodic broadcasts. Nodes get distinct phases so heartbeats do
  // not synchronise cluster-wide.
  const SimDuration phase =
      SimTime::milliseconds(37 * (node_->id().value % 16) + 11);
  heartbeat_timer_ = engine().schedule_after(phase, [this] { heartbeat(); });
}

void Conductor::stop() {
  running_ = false;
  heartbeat_timer_.cancel();
  offer_timer_.cancel();
  receive_guard_timer_.cancel();
  if (sock_) {
    sock_->close();
    sock_.reset();
  }
}

void Conductor::heartbeat() {
  if (!running_) return;
  LoadInfo info = monitor_.snapshot(node_->id().value);
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::load_info));
  info.serialize(w);
  sock_->send_to(net::Endpoint{net::Ipv4Addr::broadcast(), kCondPort}, w.take());
  LbMetrics::get().heartbeats.add(1);

  evaluate();
  heartbeat_timer_ = engine().schedule_after(cfg_.heartbeat, [this] { heartbeat(); });
}

void Conductor::on_readable() {
  // The type byte, then a LoadInfo for load_info or a CtrlMsg for every other
  // type. Anything else on this port (an empty, truncated, overlong or
  // unknown datagram) is dropped unparsed.
  while (auto dgram = sock_->recv()) {
    BinaryReader r(dgram->data);
    const auto type = static_cast<MsgType>(r.at_end() ? 0 : r.u8());
    LoadInfo info;
    CtrlMsg ctrl;
    const bool known = type >= MsgType::load_info && type <= MsgType::mig_solicit;
    if (!known || !(type == MsgType::load_info ? get_payload(r, info)
                                               : get_payload(r, ctrl))) {
      DVEMIG_WARN("conductor", "%s dropped %zu-byte datagram", node_->name().c_str(),
                  dgram->data.size());
      continue;
    }
    switch (type) {
      case MsgType::load_info:
        handle_load_info(info);
        break;
      case MsgType::mig_offer:
        handle_offer(dgram->from, ctrl.offer_id, ctrl.value);
        break;
      case MsgType::mig_accept:
        handle_accept(ctrl.offer_id);
        break;
      case MsgType::mig_reject:
        handle_reject(ctrl.offer_id);
        break;
      case MsgType::mig_release:
        handle_release();
        break;
      case MsgType::mig_solicit:
        handle_solicit(dgram->from);
        break;
    }
  }
}

void Conductor::handle_load_info(const LoadInfo& info) {
  if (info.node_local == node_->local_addr()) return;  // our own broadcast echo
  peers_[info.node_local] = PeerState{info, engine().now()};
}

std::vector<PeerView> Conductor::fresh_peers() const {
  std::vector<PeerView> views;
  const SimTime now = engine().now();
  for (const auto& [addr, peer] : peers_) {
    if (now - peer.last_seen > cfg_.peer_timeout) continue;  // lost heartbeat
    views.push_back(PeerView{addr, peer.info.utilization});
  }
  return views;
}

double Conductor::cluster_average() const {
  double sum = monitor_.node_utilization();
  std::size_t count = 1;
  for (const PeerView& peer : fresh_peers()) {
    sum += peer.utilization;
    count += 1;
  }
  return sum / static_cast<double>(count);
}

void Conductor::evaluate() {
  if (!enabled_ || calm()) return;

  const double local = monitor_.node_utilization();
  const double avg = cluster_average();
  LbMetrics::get().cluster_avg.set(avg);

  // Sender-initiated side (the paper's algorithm).
  if (cfg_.initiation != Initiation::receiver &&
      should_initiate(local, avg, cfg_)) {
    try_offer(std::nullopt);
  }

  // Receiver-initiated side: underloaded nodes advertise capacity to the most
  // loaded peer, which then runs the regular two-phase offer toward us.
  if ((cfg_.initiation == Initiation::receiver ||
       cfg_.initiation == Initiation::symmetric) &&
      !receiving_busy_ && should_solicit(local, avg, cfg_)) {
    if (const auto target = choose_solicit_target(avg, fresh_peers())) {
      solicits_sent_ += 1;
      LbMetrics::get().solicits.add(1);
      send_ctrl(*target, MsgType::mig_solicit, 0);
    }
  }
}

void Conductor::try_offer(std::optional<net::Ipv4Addr> forced_dest) {
  if (pending_offer_ || migd_->busy_sending()) return;
  const double local = monitor_.node_utilization();
  const double avg = cluster_average();

  std::optional<net::Ipv4Addr> dest = forced_dest;
  if (!dest) dest = choose_destination(local, avg, fresh_peers(), cfg_);
  if (!dest) return;
  const auto pid =
      choose_process(local, avg, monitor_.capacity_cores(), monitor_.process_loads(),
                     cfg_);
  if (!pid) return;

  // Phase one of the two-phase commit: offer the migration to the receiver.
  const std::uint64_t offer_id = ++next_offer_id_;
  pending_offer_ = PendingOffer{offer_id, *dest, *pid};
  send_ctrl(*dest, MsgType::mig_offer, offer_id,
            node_->cpu().process_cores(*pid));
  offer_timer_ = engine().schedule_after(cfg_.offer_timeout, [this, offer_id] {
    if (pending_offer_ && pending_offer_->offer_id == offer_id) {
      pending_offer_.reset();  // receiver silent: treat as reject
    }
  });
}

void Conductor::handle_solicit(net::Endpoint from) {
  if (!enabled_ || !running_ || calm()) return;
  const double local = monitor_.node_utilization();
  const double avg = cluster_average();
  // Only answer when genuinely on the heavy side; the solicitor becomes the
  // forced destination of the regular sender-side negotiation.
  if (local - avg <= cfg_.imbalance_threshold / 2) return;
  try_offer(from.addr);
}

void Conductor::handle_offer(net::Endpoint from, std::uint64_t offer_id,
                             double est_cores) {
  (void)est_cores;
  // Receiver-side transfer policy: accept a single migration at a time, only when
  // not calming down and genuinely on the light side of the cluster.
  const bool acceptable = enabled_ && running_ && !receiving_busy_ && !calm() &&
                          monitor_.node_utilization() < cluster_average();
  if (!acceptable) {
    send_ctrl(from.addr, MsgType::mig_reject, offer_id);
    return;
  }
  receiving_busy_ = true;
  // Safety guard: if the sender dies mid-migration, free the slot eventually.
  receive_guard_timer_ = engine().schedule_after(
      SimTime::seconds(30), [this] { receiving_busy_ = false; });
  send_ctrl(from.addr, MsgType::mig_accept, offer_id);
}

void Conductor::handle_accept(std::uint64_t offer_id) {
  if (!pending_offer_ || pending_offer_->offer_id != offer_id) return;
  const PendingOffer offer = *pending_offer_;
  offer_timer_.cancel();

  if (node_->find(offer.pid) == nullptr || migd_->busy_sending()) {
    pending_offer_.reset();
    send_ctrl(offer.dest, MsgType::mig_release, offer_id);
    return;
  }

  initiated_ += 1;
  LbMetrics::get().initiated.add(1);
  const bool started = migd_->migrate(
      offer.pid, offer.dest, mig::MigrateOptions{strategy_},
      [this, offer](const mig::MigrationStats& s) {
        pending_offer_.reset();
        calm_until_ = engine().now() + cfg_.calm_down;
        send_ctrl(offer.dest, MsgType::mig_release, offer.offer_id);
        if (on_migration_) on_migration_(s);
      });
  if (!started) {
    pending_offer_.reset();
    send_ctrl(offer.dest, MsgType::mig_release, offer_id);
  }
}

void Conductor::handle_reject(std::uint64_t offer_id) {
  if (!pending_offer_ || pending_offer_->offer_id != offer_id) return;
  rejected_ += 1;
  LbMetrics::get().rejected.add(1);
  offer_timer_.cancel();
  pending_offer_.reset();
}

void Conductor::handle_release() {
  receive_guard_timer_.cancel();
  receiving_busy_ = false;
  calm_until_ = engine().now() + cfg_.calm_down;
  accepted_ += 1;
  LbMetrics::get().accepted.add(1);
}

void Conductor::send_ctrl(net::Ipv4Addr to, MsgType type, std::uint64_t offer_id,
                          double value) {
  BinaryWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  put(w, CtrlMsg{offer_id, value});
  sock_->send_to(net::Endpoint{to, kCondPort}, w.take());
}

}  // namespace dvemig::lb
