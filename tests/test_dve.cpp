// DVE application-layer tests: zone grid, database server, zone server
// behaviour (real-time loop, accept/drop, DB session, serialization), game
// server, clients and the population movement model.
#include <gtest/gtest.h>

#include "src/dve/game_server.hpp"
#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"
#include "src/obs/metrics.hpp"

namespace dvemig::dve {
namespace {

// ------------------------------------------------------------------- ZoneGrid

TEST(ZoneGridTest, RowColMapping) {
  ZoneGrid grid;
  EXPECT_EQ(grid.zone_count(), 100u);
  EXPECT_EQ(grid.zone_at(0, 0), 0u);
  EXPECT_EQ(grid.zone_at(9, 9), 99u);
  EXPECT_EQ(grid.row_of(47), 4u);
  EXPECT_EQ(grid.col_of(47), 7u);
}

TEST(ZoneGridTest, InitialAssignmentTwoRowsPerNode) {
  ZoneGrid grid;
  for (ZoneId z = 0; z < grid.zone_count(); ++z) {
    EXPECT_EQ(grid.initial_node_of(z, 5), grid.row_of(z) / 2);
  }
  const auto node0 = grid.zones_of_node(0, 5);
  EXPECT_EQ(node0.size(), 20u);
  EXPECT_EQ(node0.front(), 0u);
  EXPECT_EQ(node0.back(), 19u);
}

TEST(ZoneGridTest, StepTowardMovesDiagonallyAndStops) {
  ZoneGrid grid;
  const ZoneId corner = grid.zone_at(0, 0);
  ZoneId z = grid.zone_at(4, 6);
  z = grid.step_toward(z, corner);
  EXPECT_EQ(z, grid.zone_at(3, 5));
  for (int i = 0; i < 20; ++i) z = grid.step_toward(z, corner);
  EXPECT_EQ(z, corner);
  EXPECT_EQ(grid.step_toward(corner, corner), corner);
}

TEST(ZoneGridTest, ZonePortMapping) {
  EXPECT_EQ(zone_port(0), 20000);
  EXPECT_EQ(zone_port(99), 20099);
}

// ------------------------------------------------------------------- Database

TEST(DatabaseTest, AnswersLengthPrefixedQueries) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  auto client = bed.node(0).node.stack().make_tcp();
  client->bind(bed.node(0).node.local_addr(), 0);
  client->connect(net::Endpoint{bed.db_node()->local_addr(), kDbPort});
  bed.run_for(SimTime::milliseconds(50));

  BinaryWriter q;
  q.u32(100);
  q.bytes(Buffer(100, 0x51));
  client->send(q.take());
  bed.run_for(SimTime::milliseconds(50));

  EXPECT_EQ(bed.db()->queries_served(), 1u);
  Buffer resp = client->read_bytes().copy();
  ASSERT_GE(resp.size(), 4u);
  BinaryReader r(resp);
  EXPECT_EQ(r.u32(), 64u);  // configured response size
}

TEST(DatabaseTest, MultipleSessionsIndependent) {
  TestbedConfig cfg;
  cfg.dve_nodes = 2;
  Testbed bed(cfg);
  std::vector<stack::TcpSocket::Ptr> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    auto c = bed.node(i).node.stack().make_tcp();
    c->bind(bed.node(i).node.local_addr(), 0);
    c->connect(net::Endpoint{bed.db_node()->local_addr(), kDbPort});
    clients.push_back(c);
  }
  bed.run_for(SimTime::milliseconds(50));
  EXPECT_EQ(bed.db()->active_sessions(), 2u);
  clients[0]->close();
  bed.run_for(SimTime::milliseconds(100));
  EXPECT_EQ(bed.db()->active_sessions(), 1u);
}

// ----------------------------------------------------------------- ZoneServer

struct ZoneServerFixture : ::testing::Test {
  TestbedConfig cfg;
  std::unique_ptr<Testbed> bed;

  void SetUp() override {
    cfg.dve_nodes = 2;
    bed = std::make_unique<Testbed>(cfg);
  }

  const ZoneServerApp* app_of(const std::shared_ptr<proc::Process>& proc) {
    return static_cast<const ZoneServerApp*>(proc->app().get());
  }
};

TEST_F(ZoneServerFixture, TicksAtTwentyHertzAndChargesCpu) {
  ZoneServerConfig zs;
  zs.zone = 0;
  zs.use_db = false;
  zs.base_cores = 0.5;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(2));
  const auto* app = app_of(proc);
  EXPECT_NEAR(static_cast<double>(app->ticks()), 40.0, 2.0);  // 20 Hz
  EXPECT_NEAR(bed->node(0).node.cpu().process_cores(proc->pid()), 0.5, 0.05);
}

TEST_F(ZoneServerFixture, AcceptsAndCountsClients) {
  ZoneServerConfig zs;
  zs.zone = 11;
  zs.use_db = false;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  std::vector<std::unique_ptr<TcpDveClient>> clients;
  for (int i = 0; i < 5; ++i) {
    auto c = std::make_unique<TcpDveClient>(bed->make_client_host(), bed->public_ip());
    c->connect_to_zone(11);
    clients.push_back(std::move(c));
  }
  bed->run_for(SimTime::seconds(1));
  EXPECT_EQ(app_of(proc)->client_count(), 5u);

  clients[0]->disconnect();
  clients[1]->disconnect();
  bed->run_for(SimTime::seconds(1));
  EXPECT_EQ(app_of(proc)->client_count(), 3u);  // FINs noticed, fds closed
}

TEST_F(ZoneServerFixture, CpuGrowsWithClientCount) {
  ZoneServerConfig zs;
  zs.zone = 12;
  zs.use_db = false;
  zs.base_cores = 0.01;
  zs.per_client_cores = 0.01;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  std::vector<std::unique_ptr<TcpDveClient>> clients;
  for (int i = 0; i < 10; ++i) {
    auto c = std::make_unique<TcpDveClient>(bed->make_client_host(), bed->public_ip());
    c->connect_to_zone(12);
    clients.push_back(std::move(c));
  }
  bed->run_for(SimTime::seconds(3));
  // base 0.01 + 10 clients x 0.01 = 0.11 cores.
  EXPECT_NEAR(bed->node(0).node.cpu().process_cores(proc->pid()), 0.11, 0.02);
}

TEST_F(ZoneServerFixture, ActiveUpdatesFlowToClients) {
  ZoneServerConfig zs;
  zs.zone = 13;
  zs.use_db = false;
  zs.active_updates = true;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  TcpDveClient client(bed->make_client_host(), bed->public_ip());
  client.set_record(true);
  client.connect_to_zone(13);
  bed->run_for(SimTime::seconds(2));
  // ~20 updates/s of 256 bytes each.
  EXPECT_NEAR(static_cast<double>(client.updates_received()), 38.0, 6.0);
  // At most the very last update may still be in flight at the sample instant.
  EXPECT_GE(client.updates_received() + 1, app_of(proc)->updates_sent());
  ASSERT_GE(client.records().size(), 2u);
  // Update cadence is the 50 ms real-time loop.
  const auto& recs = client.records();
  const double gap_ms = (recs[recs.size() - 1].t - recs[recs.size() - 2].t).to_ms();
  EXPECT_NEAR(gap_ms, 50.0, 5.0);
}

TEST_F(ZoneServerFixture, DbSessionPeriodicUpdates) {
  ZoneServerConfig zs;
  zs.zone = 14;
  zs.db_addr = bed->db_node()->local_addr();
  zs.db_update_period = SimTime::milliseconds(250);
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(3));
  const auto* app = app_of(proc);
  EXPECT_GE(app->db_queries_sent(), 10u);
  // The newest query's response may still be in flight.
  EXPECT_GE(app->db_responses() + 1, app->db_queries_sent());
}

TEST_F(ZoneServerFixture, AppStateSerializationRoundTrip) {
  ZoneServerConfig zs;
  zs.zone = 15;
  zs.use_db = false;
  zs.active_updates = true;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  TcpDveClient client(bed->make_client_host(), bed->public_ip());
  client.connect_to_zone(15);
  bed->run_for(SimTime::seconds(1));

  BinaryWriter w;
  proc->app()->serialize(w);
  BinaryReader r(w.buffer());
  auto restored = proc::AppLogic::create(ZoneServerApp::kKind, r);
  const auto* app = static_cast<const ZoneServerApp*>(restored.get());
  EXPECT_EQ(app->config().zone, 15u);
  EXPECT_TRUE(app->config().active_updates);
  EXPECT_EQ(app->client_count(), 1u);
  EXPECT_EQ(app->listener_fd(), app_of(proc)->listener_fd());
  EXPECT_EQ(app->updates_sent(), app_of(proc)->updates_sent());
}

TEST_F(ZoneServerFixture, FrozenServerStopsTicking) {
  ZoneServerConfig zs;
  zs.zone = 16;
  zs.use_db = false;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(1));
  const std::uint64_t ticks = app_of(proc)->ticks();
  proc->freeze();
  bed->run_for(SimTime::seconds(1));
  EXPECT_EQ(app_of(proc)->ticks(), ticks);
  proc->resume();
  bed->run_for(SimTime::seconds(1));
  EXPECT_GT(app_of(proc)->ticks(), ticks + 15);
}

TEST_F(ZoneServerFixture, ClientLeavingWhileFrozenIsReaped) {
  ZoneServerConfig zs;
  zs.zone = 17;
  zs.use_db = false;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  std::vector<std::unique_ptr<TcpDveClient>> clients;
  for (int i = 0; i < 3; ++i) {
    auto c = std::make_unique<TcpDveClient>(bed->make_client_host(), bed->public_ip());
    if (i == 1) c->set_active(SimTime::milliseconds(50), 48);
    c->connect_to_zone(17);
    clients.push_back(std::move(c));
  }
  bed->run_for(SimTime::seconds(1));
  ASSERT_EQ(app_of(proc)->client_count(), 3u);

  // Unread bytes, then the FIN, land while the server cannot act on them.
  proc->freeze();
  bed->run_for(SimTime::milliseconds(120));
  clients[1]->disconnect();
  bed->run_for(SimTime::seconds(1));
  EXPECT_EQ(app_of(proc)->client_count(), 3u);

  proc->resume();
  bed->run_for(SimTime::seconds(2));
  EXPECT_EQ(app_of(proc)->client_count(), 2u);
  EXPECT_EQ(proc->files().socket_count(), 3u);  // listener + 2 clients
}

// ------------------------------------------------- ZoneServer ready-list tick

/// Read-call counter shared by every zone server in the process.
std::uint64_t socket_reads() {
  const obs::Counter* c = obs::Registry::instance().find_counter("dve.socket_reads");
  return c != nullptr ? c->value() : 0;
}

/// Server-side TCP sockets of `proc` other than `skip` (its listener).
std::vector<stack::TcpSocket*> client_sockets(proc::Process& proc, Fd skip) {
  std::vector<stack::TcpSocket*> out;
  for (const auto& [fd, file] : proc.files().entries()) {
    if (fd == skip || file.kind != proc::FileKind::socket) continue;
    out.push_back(static_cast<stack::TcpSocket*>(file.socket.get()));
  }
  return out;
}

/// Fire events one at a time until `app` has ticked `target` times.
void step_until_ticks(sim::Engine& engine, const ZoneServerApp& app,
                      std::uint64_t target) {
  while (app.ticks() < target) ASSERT_EQ(engine.run(1), 1u);
}

TEST_F(ZoneServerFixture, BytesQueuedBeforeAcceptAreDrainedOnFirstTick) {
  ZoneServerConfig zs;
  zs.zone = 18;
  zs.use_db = false;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::milliseconds(200));

  // Frozen, the server accepts nothing, but the stack still completes the
  // handshake and queues the client's bytes on the unaccepted child.
  proc->freeze();
  ClientHost& host = bed->make_client_host();
  auto sock = host.stack().make_tcp();
  sock->bind(host.addr(), 0);
  sock->connect(net::Endpoint{bed->public_ip(), zone_port(18)});
  bed->run_for(SimTime::milliseconds(200));
  ASSERT_EQ(sock->state(), stack::TcpState::established);
  sock->send(Buffer(100, 0x6B));
  bed->run_for(SimTime::milliseconds(200));

  const ZoneServerApp& app = *app_of(proc);
  const std::uint64_t ticks = app.ticks();
  proc->resume();  // accepts and adopts the child; nothing arrives after this
  ASSERT_EQ(app.client_count(), 1u);
  const auto children = client_sockets(*proc, app.listener_fd());
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->bytes_available(), 100u);

  const std::uint64_t reads = socket_reads();
  step_until_ticks(bed->engine(), app, ticks + 1);
  EXPECT_EQ(children[0]->bytes_available(), 0u);
  EXPECT_EQ(socket_reads() - reads, 1u);
}

TEST_F(ZoneServerFixture, IdleClientsCostNoReads) {
  ZoneServerConfig zs;
  zs.zone = 19;
  zs.use_db = false;
  auto proc = ZoneServerApp::launch(bed->node(0).node, zs);
  std::vector<std::unique_ptr<TcpDveClient>> clients;
  for (int i = 0; i < 51; ++i) {
    auto c = std::make_unique<TcpDveClient>(bed->make_client_host(), bed->public_ip());
    if (i == 25) c->set_active(SimTime::milliseconds(50), 48);
    c->connect_to_zone(19);
    clients.push_back(std::move(c));
  }
  bed->run_for(SimTime::seconds(1));
  ASSERT_EQ(app_of(proc)->client_count(), 51u);

  const std::uint64_t ticks = app_of(proc)->ticks();
  const std::uint64_t reads = socket_reads();
  bed->run_for(SimTime::seconds(2));
  const std::uint64_t dticks = app_of(proc)->ticks() - ticks;
  const std::uint64_t dreads = socket_reads() - reads;
  // One 48-byte message per 50 ms from the active client, none from the
  // other 50: at most one read per tick, where polling would make 51.
  EXPECT_GE(dticks, 38u);
  EXPECT_LE(dreads, dticks);
  EXPECT_GE(dreads, dticks - 2);
  for (stack::TcpSocket* s : client_sockets(*proc, app_of(proc)->listener_fd())) {
    EXPECT_LE(s->bytes_available(), 48u);
  }
}

// ----------------------------------------------------------------- GameServer

TEST(GameServerTest, SnapshotsAtTwentyHertz) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  const OpenArenaPoint world(bed, 4);
  bed.run_for(SimTime::seconds(2));
  const auto* app = static_cast<const GameServerApp*>(world.proc->app().get());
  EXPECT_EQ(app->client_count(), 4u);
  for (const auto& c : world.clients) {
    EXPECT_NEAR(static_cast<double>(c->received().size()), 39.0, 4.0);  // 20/s
    EXPECT_EQ(c->missing_snapshots(), 0u);
  }
}

TEST(GameServerTest, SilentClientTimesOut) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  GameServerConfig gs;
  gs.client_timeout = SimTime::seconds(1);
  auto proc = GameServerApp::launch(bed.node(0).node, gs);
  auto client = std::make_unique<UdpGameClient>(
      bed.make_client_host(), net::Endpoint{bed.public_ip(), gs.port});
  client->start();
  bed.run_for(SimTime::milliseconds(500));
  const auto* app = static_cast<const GameServerApp*>(proc->app().get());
  EXPECT_EQ(app->client_count(), 1u);
  client->stop();  // goes silent
  bed.run_for(SimTime::seconds(3));
  EXPECT_EQ(app->client_count(), 0u);
}

// ----------------------------------------------------------------- Population

TEST(PopulationTest, UniformInitialDistribution) {
  TestbedConfig cfg;
  cfg.dve_nodes = 5;
  Testbed bed(cfg);
  // Zone servers for all 100 zones (idle, no DB, small heaps to keep this fast).
  ZoneServerConfig zs;
  zs.use_db = false;
  zs.heap_bytes = 1 << 20;
  PopulationConfig pc;
  pc.client_count = 500;
  Dve world(bed, ZoneGrid{}, zs, pc);
  const Population& pop = world.population();
  bed.run_for(SimTime::seconds(12));

  const auto counts = pop.clients_per_zone();
  for (const std::uint32_t c : counts) EXPECT_EQ(c, 5u);  // 500 / 100
  // Every client actually connected to its zone server.
  std::size_t connected = 0;
  for (std::uint32_t n = 0; n < 5; ++n) {
    for (const auto& [pid, proc] : bed.node(n).node.processes()) {
      connected +=
          static_cast<const ZoneServerApp*>(proc->app().get())->client_count();
    }
  }
  EXPECT_EQ(connected, 500u);
  EXPECT_EQ(pop.total_resets(), 0u);
}

TEST(PopulationTest, MovementDriftsTowardCorners) {
  TestbedConfig cfg;
  cfg.dve_nodes = 5;
  Testbed bed(cfg);
  ZoneServerConfig zs;
  zs.use_db = false;
  zs.heap_bytes = 1 << 20;
  PopulationConfig pc;
  pc.client_count = 1000;
  pc.move_start = SimTime::seconds(5);
  pc.move_end = SimTime::seconds(120);
  pc.move_step_prob = 0.5;  // accelerated drift for the test
  Dve world(bed, ZoneGrid{}, zs, pc);
  const Population& pop = world.population();
  bed.run_for(SimTime::seconds(60));

  // The corner regions gained population; the middle thinned out.
  const ZoneGrid grid;
  const auto counts = pop.clients_per_zone();
  std::uint32_t corner_mass = 0;
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (std::uint32_t c = 0; c < 3; ++c) {
      corner_mass += counts[grid.zone_at(r, c)];
      corner_mass += counts[grid.zone_at(9 - r, 9 - c)];
    }
  }
  std::uint32_t middle_mass = 0;
  for (std::uint32_t r = 4; r <= 5; ++r) {
    for (std::uint32_t c = 0; c < 10; ++c) middle_mass += counts[grid.zone_at(r, c)];
  }
  EXPECT_GT(corner_mass, 280u);   // started at 180 (18 zones x 10)
  EXPECT_LT(middle_mass, 170u);   // started at 200
  EXPECT_GT(pop.zone_handoffs(), 500u);
  EXPECT_EQ(pop.total_resets(), 0u);  // handoffs are clean close+reconnect
}

}  // namespace
}  // namespace dvemig::dve
