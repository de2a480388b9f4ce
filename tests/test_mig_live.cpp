// End-to-end live-migration tests on the full testbed: all three socket
// migration strategies, loss prevention under traffic, listener migration,
// UDP server migration, DB-session survival through the translation filter,
// and the two ablations (timestamp adjustment off, dst-cache fix off).
#include <gtest/gtest.h>

#include <map>

#include "json_lint.hpp"
#include "src/check/verifier.hpp"
#include "src/obs/span.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/metrics.hpp"

namespace dvemig {
namespace {

using mig::MigrationStats;
using mig::SocketMigStrategy;

struct LiveMigrationFixture : ::testing::Test {
  dve::TestbedConfig cfg;
  std::unique_ptr<dve::Testbed> bed;
  // Declared after `bed` so it detaches from the engine before teardown.
  std::unique_ptr<check::Verifier> verify;

  void SetUp() override {
    cfg.dve_nodes = 3;
    bed = std::make_unique<dve::Testbed>(cfg);
    // dvemig-verify rides along on every live-migration test: socket tables,
    // TCP control blocks, capture queues and the migd protocol all audited.
    check::VerifierConfig vcfg;
    vcfg.abort_on_violation = false;
    vcfg.every_n_events = 32;  // the testbed fires millions of events per test
    verify = std::make_unique<check::Verifier>(bed->engine(), vcfg);
    for (std::size_t i = 0; i < bed->node_count(); ++i) {
      verify->watch_stack(bed->node(i).node.stack());
      verify->watch_capture(bed->node(i).migd.capture());
    }
    if (bed->db_node() != nullptr) verify->watch_stack(bed->db_node()->stack());
  }

  void TearDown() override {
    if (verify) {
      EXPECT_TRUE(verify->clean())
          << verify->violations().front().rule << ": "
          << verify->violations().front().detail;
    }
  }
};

TEST_F(LiveMigrationFixture, IdleZoneServerMigrates) {
  dve::ZoneServerConfig zs;
  zs.zone = 5;
  zs.db_addr = bed->db_node()->local_addr();
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  const Pid pid = proc->pid();
  bed->run_for(SimTime::seconds(1));

  const MigrationStats stats =
      dve::migrate_and_wait(*bed, pid, 0, 1, {SocketMigStrategy::incremental_collective},
                            SimTime::seconds(5)).value();
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(bed->node(0).node.find(pid), nullptr);
  ASSERT_NE(bed->node(1).node.find(pid), nullptr);
  EXPECT_GT(stats.precopy_rounds, 1);
  EXPECT_GT(stats.freeze_time().ns, 0);
  EXPECT_LT(stats.freeze_time().to_ms(), 20.0);

  // The restored server keeps ticking and talking to the DB on the new node.
  auto moved = bed->node(1).node.find(pid);
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  const std::uint64_t db_before = app->db_responses();
  bed->run_for(SimTime::seconds(3));
  EXPECT_GT(app->db_responses(), db_before);
}

TEST_F(LiveMigrationFixture, SourceProcessGoneAfterMigration) {
  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.use_db = false;
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::milliseconds(500));
  const MigrationStats stats =
      dve::migrate_and_wait(*bed, proc->pid(), 0, 2, {SocketMigStrategy::collective},
                            SimTime::seconds(5)).value();
  EXPECT_TRUE(stats.success);
  // No residual dependencies: the source node holds neither the process nor any
  // of its sockets in the lookup tables.
  EXPECT_EQ(bed->node(0).node.find(stats.pid), nullptr);
  // The migd channel itself has finished closing by now: nothing remains.
  EXPECT_EQ(bed->node(0).node.stack().table().ehash_size(), 0u);
}

struct StrategyCase {
  SocketMigStrategy strategy;
};

class StrategyTransparency : public LiveMigrationFixture,
                             public ::testing::WithParamInterface<SocketMigStrategy> {};

// The paper's core claim, as a property: under *every* strategy, with clients
// actively exchanging data 20 times a second, migration loses no connection, no
// update, and stays invisible to the peers.
TEST_P(StrategyTransparency, ActiveClientsSurviveUnharmed) {
  dve::ZoneServerConfig zs;
  zs.zone = 9;
  zs.active_updates = true;
  const dve::ZoneServerPoint world(*bed, zs, {.count = 12});
  const Pid pid = world.proc->pid();
  const auto& clients = world.clients;
  bed->run_for(SimTime::seconds(2));

  const MigrationStats stats =
      dve::migrate_and_wait(*bed, pid, 0, 1, {GetParam()}, SimTime::seconds(5)).value();
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.socket_count, 14u);  // listener + 12 clients + DB session

  bed->run_for(SimTime::seconds(2));
  auto moved = bed->node(1).node.find(pid);
  ASSERT_NE(moved, nullptr);
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  EXPECT_EQ(app->client_count(), 12u);

  std::uint64_t total_updates = 0;
  for (const auto& c : clients) {
    EXPECT_TRUE(c->connected());
    EXPECT_EQ(c->resets_seen(), 0u);
    total_updates += c->updates_received();
  }
  // ~6 s at 20 Hz x 12 clients, minus the connection ramp and freeze: all
  // updates the server sent were received (stream integrity; at most one tick's
  // worth may still be in flight at the sampling instant).
  EXPECT_GE(total_updates + 12, app->updates_sent());
  EXPECT_LE(total_updates, app->updates_sent());
  EXPECT_GT(total_updates, 12 * 20 * 4u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTransparency,
                         ::testing::Values(SocketMigStrategy::iterative,
                                           SocketMigStrategy::collective,
                                           SocketMigStrategy::incremental_collective),
                         [](const auto& suite_info) {
                           std::string name = mig::strategy_name(suite_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_F(LiveMigrationFixture, FreezeTimeOrdering) {
  // iterative >= collective >= incremental collective, with enough connections
  // for the differences to dominate noise.
  std::map<SocketMigStrategy, double> freeze_ms;
  for (const auto strategy :
       {SocketMigStrategy::iterative, SocketMigStrategy::collective,
        SocketMigStrategy::incremental_collective}) {
    dve::TestbedConfig local_cfg;
    local_cfg.dve_nodes = 2;
    dve::Testbed local_bed(local_cfg);
    dve::ZoneServerConfig zs;
    zs.zone = 3;
    zs.active_updates = true;
    const dve::ZoneServerPoint world(local_bed, zs, {.count = 64});
    local_bed.run_for(SimTime::seconds(2));

    const auto stats = dve::migrate_and_wait(local_bed, world.proc->pid(), 0, 1,
                                             {strategy}, SimTime::seconds(5));
    ASSERT_TRUE(stats && stats->success);
    freeze_ms[strategy] = stats->freeze_time().to_ms();
  }
  EXPECT_GT(freeze_ms[SocketMigStrategy::iterative],
            freeze_ms[SocketMigStrategy::collective]);
  EXPECT_GT(freeze_ms[SocketMigStrategy::collective],
            freeze_ms[SocketMigStrategy::incremental_collective]);
}

TEST_F(LiveMigrationFixture, PacketsDuringFreezeCapturedNotLost) {
  // UDP game server with chatty clients: during the freeze window the clients
  // keep sending commands; the capture filter must hand every one of them to
  // the restored socket.
  const dve::OpenArenaPoint world(*bed, 24, SimTime::milliseconds(5));
  const Pid pid = world.proc->pid();
  bed->run_for(SimTime::seconds(2));

  const MigrationStats stats =
      dve::migrate_and_wait(*bed, pid, 0, 1, {SocketMigStrategy::incremental_collective},
                            SimTime::seconds(5)).value();
  EXPECT_TRUE(stats.success);
  // 24 clients at 5 ms cadence: the freeze window (>= a few hundred us) must
  // have seen client packets — all captured and reinjected, none dropped.
  EXPECT_GT(stats.captured, 0u);
  EXPECT_EQ(stats.captured, stats.reinjected);

  bed->run_for(SimTime::seconds(1));
  auto moved = bed->node(1).node.find(pid);
  ASSERT_NE(moved, nullptr);
  const auto* app = static_cast<const dve::GameServerApp*>(moved->app().get());
  EXPECT_EQ(app->client_count(), 24u);  // nobody timed out across the move
}

TEST_F(LiveMigrationFixture, ListenerAcceptsNewClientsAfterMigration) {
  dve::ZoneServerConfig zs;
  zs.zone = 4;
  zs.use_db = false;
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  const Pid pid = proc->pid();
  bed->run_for(SimTime::milliseconds(500));
  const MigrationStats stats =
      dve::migrate_and_wait(*bed, pid, 0, 2, {SocketMigStrategy::collective},
                            SimTime::seconds(5)).value();
  ASSERT_TRUE(stats.success);

  // A brand-new client connects to the zone port after the move — the restored
  // listener on node 3 must accept it (same public IP, same port).
  auto& host = bed->make_client_host();
  dve::TcpDveClient late(host, bed->public_ip());
  late.connect_to_zone(zs.zone);
  bed->run_for(SimTime::seconds(1));
  EXPECT_TRUE(late.connected());
  auto moved = bed->node(2).node.find(pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(static_cast<const dve::ZoneServerApp*>(moved->app().get())->client_count(),
            1u);
}

// Restored receive queues fire no readable callback: the restored server must
// put each client holding bytes on its ready list itself, or these bytes would
// sit unread until the client happened to send again.
TEST_F(LiveMigrationFixture, RestoredUnreadClientBytesDrainOnFirstTick) {
  dve::ZoneServerConfig zs;
  zs.zone = 6;
  zs.use_db = false;
  zs.tick = SimTime::seconds(5);  // first tick only after the move completes
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  const Pid pid = proc->pid();

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kBytes = 100;
  std::vector<std::shared_ptr<stack::TcpSocket>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    auto& host = bed->make_client_host();
    auto sock = host.stack().make_tcp();
    sock->bind(host.addr(), 0);
    sock->connect(net::Endpoint{bed->public_ip(), dve::zone_port(zs.zone)});
    clients.push_back(std::move(sock));
  }
  bed->run_for(SimTime::milliseconds(300));
  for (const auto& sock : clients) sock->send(Buffer(kBytes, 0x6B));  // and never again
  bed->run_for(SimTime::milliseconds(200));

  bool done = false;
  ASSERT_TRUE(bed->node(0).migd.migrate(pid, bed->node(1).node.local_addr(),
                                        {SocketMigStrategy::incremental_collective},
                                        [&](const MigrationStats& s) {
                                          EXPECT_TRUE(s.success);
                                          done = true;
                                        }));
  std::shared_ptr<proc::Process> moved;
  while ((moved = bed->node(1).node.find(pid)) == nullptr || moved->frozen()) {
    ASSERT_LT(bed->engine().now(), SimTime::seconds(4));
    ASSERT_EQ(bed->engine().run(1), 1u);
  }
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  ASSERT_EQ(app->ticks(), 0u);
  std::vector<stack::TcpSocket*> restored;
  for (const auto& [fd, file] : moved->files().entries()) {
    if (fd == app->listener_fd() || file.kind != proc::FileKind::socket) continue;
    restored.push_back(static_cast<stack::TcpSocket*>(file.socket.get()));
  }
  ASSERT_EQ(restored.size(), kClients);
  for (const stack::TcpSocket* s : restored) EXPECT_EQ(s->bytes_available(), kBytes);

  const obs::Counter& reads = obs::Registry::instance().counter("dve.socket_reads");
  const std::uint64_t reads_before = reads.value();
  while (app->ticks() == 0) ASSERT_EQ(bed->engine().run(1), 1u);
  for (const stack::TcpSocket* s : restored) EXPECT_EQ(s->bytes_available(), 0u);
  EXPECT_EQ(reads.value() - reads_before, kClients);
  bed->run_for(SimTime::seconds(1));
  EXPECT_TRUE(done);
}

TEST_F(LiveMigrationFixture, DbSessionContinuesViaTranslation) {
  dve::ZoneServerConfig zs;
  zs.zone = 8;
  zs.db_addr = bed->db_node()->local_addr();
  zs.db_update_period = SimTime::milliseconds(100);
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  const Pid pid = proc->pid();
  bed->run_for(SimTime::seconds(1));

  const MigrationStats stats =
      dve::migrate_and_wait(*bed, pid, 0, 1, {SocketMigStrategy::incremental_collective},
                            SimTime::seconds(5)).value();
  ASSERT_TRUE(stats.success);

  auto moved = bed->node(1).node.find(pid);
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  const std::uint64_t before = app->db_responses();
  bed->run_for(SimTime::seconds(2));
  // ~20 more request/response round trips flowed through the translation filter.
  EXPECT_GE(app->db_responses(), before + 15);
  EXPECT_GE(app->db_responses() + 1, app->db_queries_sent());  // last may be in flight
  // The DB server never noticed: still exactly one session, no reconnect.
  EXPECT_EQ(bed->db()->active_sessions(), 1u);
}

TEST_F(LiveMigrationFixture, ChainedMigrationsKeepWorking) {
  dve::ZoneServerConfig zs;
  zs.zone = 2;
  zs.db_addr = bed->db_node()->local_addr();
  zs.db_update_period = SimTime::milliseconds(200);
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  const Pid pid = proc->pid();
  bed->run_for(SimTime::seconds(1));

  // 0 -> 1 -> 2 -> 0: translation rules must compose across hops.
  ASSERT_TRUE(dve::migrate_and_wait(*bed, pid, 0, 1,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(5)).value().success);
  bed->run_for(SimTime::seconds(1));
  ASSERT_TRUE(dve::migrate_and_wait(*bed, pid, 1, 2,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(5)).value().success);
  bed->run_for(SimTime::seconds(1));
  ASSERT_TRUE(dve::migrate_and_wait(*bed, pid, 2, 0,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(5)).value().success);

  auto home = bed->node(0).node.find(pid);
  ASSERT_NE(home, nullptr);
  const auto* app = static_cast<const dve::ZoneServerApp*>(home->app().get());
  const std::uint64_t before = app->db_responses();
  bed->run_for(SimTime::seconds(2));
  EXPECT_GT(app->db_responses(), before);
  EXPECT_EQ(bed->db()->active_sessions(), 1u);
}

TEST_F(LiveMigrationFixture, AblationNoTimestampAdjustmentStallsTraffic) {
  // Destination jiffies lag the source's (node order reversed: node2's clock is
  // *behind* node3's). Without the adjustment the restored socket emits tsval
  // values in the peer's past -> PAWS discards them.
  dve::ZoneServerConfig zs;
  zs.zone = 6;
  zs.active_updates = true;
  zs.use_db = false;
  auto proc = dve::ZoneServerApp::launch(bed->node(2).node, zs);  // largest offset
  const Pid pid = proc->pid();

  auto& host = bed->make_client_host();
  dve::TcpDveClient client(host, bed->public_ip());
  client.set_active(SimTime::milliseconds(50), 48);
  client.connect_to_zone(zs.zone);
  bed->run_for(SimTime::seconds(2));

  bed->node(1).migd.set_adjust_timestamps(false);  // the ablation
  const auto stats = dve::migrate_and_wait(
      *bed, pid, 2, 1, {SocketMigStrategy::incremental_collective}, SimTime::seconds(2));
  ASSERT_TRUE(stats && stats->success);

  const std::uint64_t updates_at_migration = client.updates_received();
  bed->run_for(SimTime::seconds(3));
  // The client's PAWS check discards every update the moved server sends: the
  // stream stalls (the healthy run above would have delivered ~60 more).
  EXPECT_LT(client.updates_received() - updates_at_migration, 5u);
}

TEST_F(LiveMigrationFixture, AblationNoDstCacheFixStallsDbSession) {
  dve::ZoneServerConfig zs;
  zs.zone = 7;
  zs.db_addr = bed->db_node()->local_addr();
  zs.db_update_period = SimTime::milliseconds(100);
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  const Pid pid = proc->pid();
  bed->run_for(SimTime::seconds(1));

  // Reach into the DB host's transd and disable the dst-cache replacement —
  // reproducing the Section V-D bug.
  // (The testbed wires transd on the DB node; we emulate the broken install by
  // disabling the fix flag there.)
  bed->db_transd().set_fix_dst_cache(false);

  const MigrationStats stats =
      dve::migrate_and_wait(*bed, pid, 0, 1, {SocketMigStrategy::incremental_collective},
                            SimTime::seconds(5)).value();
  ASSERT_TRUE(stats.success);

  auto moved = bed->node(1).node.find(pid);
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  const std::uint64_t before = app->db_responses();
  bed->run_for(SimTime::seconds(3));
  // DB responses are steered to the old node by the stale cache entry: the
  // session makes (next to) no progress.
  EXPECT_LT(app->db_responses() - before, 3u);
}

TEST_F(LiveMigrationFixture, MigdRefusesConcurrentSends) {
  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.use_db = false;
  auto p1 = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  zs.zone = 2;
  auto p2 = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::milliseconds(200));

  bool done1 = false;
  ASSERT_TRUE(bed->node(0).migd.migrate(p1->pid(), bed->node(1).node.local_addr(),
                                        {SocketMigStrategy::collective},
                                        [&](const MigrationStats&) { done1 = true; }));
  EXPECT_TRUE(bed->node(0).migd.busy_sending());
  EXPECT_FALSE(bed->node(0).migd.migrate(p2->pid(), bed->node(1).node.local_addr(),
                                         {SocketMigStrategy::collective},
                                         [](const MigrationStats&) {}));
  bed->run_for(SimTime::seconds(3));
  EXPECT_TRUE(done1);
  EXPECT_FALSE(bed->node(0).migd.busy_sending());
}

TEST_F(LiveMigrationFixture, StatsAccounting) {
  dve::ZoneServerConfig zs;
  zs.zone = 3;
  zs.use_db = false;
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::milliseconds(300));
  const MigrationStats stats =
      dve::migrate_and_wait(*bed, proc->pid(), 0, 1, {SocketMigStrategy::collective},
                            SimTime::seconds(5)).value();
  ASSERT_TRUE(stats.success);
  EXPECT_EQ(stats.proc_name, "zone_3");
  EXPECT_EQ(stats.src_node, bed->node(0).node.local_addr());
  EXPECT_EQ(stats.dst_node, bed->node(1).node.local_addr());
  // The precopy moved the (12 MiB+) anonymous image; freeze moved far less.
  EXPECT_GT(stats.precopy_channel_bytes, 12u << 20);
  EXPECT_LT(stats.freeze_channel_bytes, 1u << 20);
  EXPECT_GT(stats.freeze_socket_bytes, 0u);
  EXPECT_LE(stats.t_freeze_begin, stats.t_resume);
  EXPECT_GE(stats.t_freeze_begin, stats.t_start);
}

TEST_F(LiveMigrationFixture, FreezeSpanMatchesStatsAndTraceExports) {
  // Acceptance criterion for the observability layer: a live migration yields
  // a Perfetto-loadable trace whose mig.freeze span equals MigStats exactly —
  // the stats are *derived from* the span, so drift is impossible by
  // construction, and this test pins that property.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();

  dve::ZoneServerConfig zs;
  zs.zone = 5;
  zs.db_addr = bed->db_node()->local_addr();
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(1));
  const MigrationStats stats =
      dve::migrate_and_wait(*bed, proc->pid(), 0, 1,
                            {SocketMigStrategy::incremental_collective},
                            SimTime::seconds(5)).value();
  ASSERT_TRUE(stats.success);

  const obs::Span* freeze = tracer.last_completed("mig.freeze");
  ASSERT_NE(freeze, nullptr);
  EXPECT_EQ(freeze->duration_ns(), stats.freeze_time().ns);  // exact, not approx
  EXPECT_EQ(freeze->t_begin_ns, stats.t_freeze_begin.ns);
  EXPECT_EQ(freeze->t_end_ns, stats.t_resume.ns);

  // The whole phase tree completed, on both the source and destination tracks.
  for (const char* name : {"mig.total", "mig.precopy", "mig.precopy_round",
                           "mig.capture_arm", "mig.final_transfer", "mig.receive",
                           "mig.restore"}) {
    EXPECT_NE(tracer.last_completed(name), nullptr) << name;
  }
  EXPECT_EQ(tracer.open_count(), 0u);

  const std::string trace = tracer.chrome_trace_json();
  std::string err;
  EXPECT_TRUE(testutil::JsonLint::valid(trace, &err)) << err;
  EXPECT_NE(trace.find("\"name\":\"mig.freeze\""), std::string::npos);
  EXPECT_NE(trace.find("/migd.src"), std::string::npos);
  EXPECT_NE(trace.find("/migd.dst"), std::string::npos);
  tracer.clear();
}

}  // namespace
}  // namespace dvemig
