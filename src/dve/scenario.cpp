#include "src/dve/scenario.hpp"

#include <algorithm>

namespace dvemig::dve {

namespace {

void use_testbed_db(Testbed& bed, ZoneServerConfig& zs) {
  if (zs.use_db && bed.db_node() != nullptr) zs.db_addr = bed.db_node()->local_addr();
}

}  // namespace

std::optional<mig::MigrationStats> migrate_and_wait(Testbed& bed, Pid pid,
                                                    std::size_t from, std::size_t to,
                                                    const mig::MigrateOptions& options,
                                                    SimDuration budget,
                                                    SimDuration slice) {
  std::optional<mig::MigrationStats> stats;
  if (!bed.node(from).migd.migrate(pid, bed.node(to).node.local_addr(), options,
                                   [&stats](const mig::MigrationStats& s) { stats = s; })) {
    return std::nullopt;
  }
  if (slice <= SimTime::zero()) slice = budget;
  for (SimDuration waited{}; waited < budget && !stats; waited = waited + slice) {
    bed.run_for(slice);
  }
  return stats;
}

ZoneServerPoint::ZoneServerPoint(Testbed& bed, ZoneServerConfig zs,
                                 const ZoneClients& spec, std::size_t node) {
  use_testbed_db(bed, zs);
  proc = ZoneServerApp::launch(bed.node(node).node, zs);

  const std::size_t host_count = std::min(spec.count, spec.hosts);
  std::vector<ClientHost*> hosts;
  hosts.reserve(host_count);
  for (std::size_t i = 0; i < host_count; ++i) hosts.push_back(&bed.make_client_host());

  clients.reserve(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    auto c = std::make_unique<TcpDveClient>(*hosts[i % host_count], bed.public_ip());
    if (i < spec.active) c->set_active(SimTime::milliseconds(50), spec.message_bytes);
    clients.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < spec.count; ++i) {
    TcpDveClient* c = clients[i].get();
    if (spec.ramp <= SimTime::zero()) {
      c->connect_to_zone(zs.zone);
      continue;
    }
    const SimDuration when = SimTime::nanoseconds(
        spec.ramp_offset.ns + spec.ramp.ns * static_cast<std::int64_t>(i));
    bed.engine().schedule_after(when, [c, zone = zs.zone] { c->connect_to_zone(zone); });
  }
}

std::uint64_t ZoneServerPoint::updates_received() const {
  std::uint64_t n = 0;
  for (const auto& c : clients) n += c->updates_received();
  return n;
}

std::uint64_t ZoneServerPoint::resets_seen() const {
  std::uint64_t n = 0;
  for (const auto& c : clients) n += c->resets_seen();
  return n;
}

OpenArenaPoint::OpenArenaPoint(Testbed& bed, std::size_t count, SimDuration cmd_period) {
  proc = GameServerApp::launch(bed.node(0).node, config);
  clients.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto c = std::make_unique<UdpGameClient>(
        bed.make_client_host(), net::Endpoint{bed.public_ip(), config.port}, cmd_period);
    c->start();
    clients.push_back(std::move(c));
  }
}

std::size_t OpenArenaPoint::missing_snapshots() const {
  std::size_t n = 0;
  for (const auto& c : clients) n += c->missing_snapshots();
  return n;
}

Dve::Dve(Testbed& bed, const ZoneGrid& grid, ZoneServerConfig zs, PopulationConfig pc)
    : population_(bed, grid, pc) {
  use_testbed_db(bed, zs);
  const auto nodes = static_cast<std::uint32_t>(bed.node_count());
  for (std::uint32_t n = 0; n < nodes; ++n) {
    for (const ZoneId z : grid.zones_of_node(n, nodes)) {
      zs.zone = z;
      servers_.push_back(ZoneServerApp::launch(bed.node(n).node, zs));
    }
  }
  population_.populate();
  population_.start_movement();
}

}  // namespace dvemig::dve
