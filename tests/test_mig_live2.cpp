// Second live-migration batch: the stop-and-copy baseline, failure paths,
// connections arriving mid-freeze, un-accepted listener children, and mixed
// UDP+TCP fd tables under the iterative strategy, the socketless freeze, and a
// socket that a client's RST closes while the process is frozen.
#include <gtest/gtest.h>

#include "src/check/verifier.hpp"
#include "src/dve/scenario.hpp"

namespace dvemig {
namespace {

using mig::MigrateOptions;
using mig::MigrationStats;
using mig::SocketMigStrategy;

struct Live2Fixture : ::testing::Test {
  std::unique_ptr<dve::Testbed> bed;

  void SetUp() override {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 3;
    bed = std::make_unique<dve::Testbed>(cfg);
  }
};

TEST_F(Live2Fixture, StopAndCopyWorksButDowntimeScalesWithMemory) {
  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.db_addr = bed->db_node()->local_addr();
  zs.heap_bytes = 16ull << 20;
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(1));

  const MigrationStats cold =
      dve::migrate_and_wait(*bed, proc->pid(), 0, 1,
                            {SocketMigStrategy::incremental_collective, /*live=*/false},
                            SimTime::seconds(6)).value();
  ASSERT_TRUE(cold.success);
  EXPECT_FALSE(cold.live);
  EXPECT_EQ(cold.precopy_rounds, 0);
  // The entire 16 MiB image moves while the process is frozen: >100 ms.
  EXPECT_GT(cold.freeze_time().to_ms(), 100.0);
  EXPECT_GT(cold.freeze_channel_bytes, 16u << 20);

  // The process still works afterwards.
  auto moved = bed->node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  const std::uint64_t db_before = app->db_responses();
  bed->run_for(SimTime::seconds(3));
  EXPECT_GT(app->db_responses(), db_before);
}

TEST_F(Live2Fixture, LiveBeatsStopAndCopyByOrdersOfMagnitude) {
  dve::ZoneServerConfig zs;
  zs.zone = 2;
  zs.use_db = false;
  zs.heap_bytes = 16ull << 20;
  auto p1 = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  zs.zone = 3;
  auto p2 = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(1));

  const MigrationStats live =
      dve::migrate_and_wait(*bed, p1->pid(), 0, 1,
                            {SocketMigStrategy::incremental_collective, true},
                            SimTime::seconds(6)).value();
  const MigrationStats cold =
      dve::migrate_and_wait(*bed, p2->pid(), 0, 2,
                            {SocketMigStrategy::incremental_collective, false},
                            SimTime::seconds(6)).value();
  ASSERT_TRUE(live.success && cold.success);
  EXPECT_LT(live.freeze_time().to_ms() * 20, cold.freeze_time().to_ms());
}

TEST_F(Live2Fixture, UnreachableDestinationFailsAndSourceSurvives) {
  dve::ZoneServerConfig zs;
  zs.zone = 4;
  zs.use_db = false;
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::milliseconds(500));

  MigrationStats stats;
  bool done = false;
  // The DB node runs transd but no migd: the connect times out.
  ASSERT_TRUE(bed->node(0).migd.migrate(proc->pid(), bed->db_node()->local_addr(),
                                        {SocketMigStrategy::collective},
                                        [&](const MigrationStats& s) {
                                          stats = s;
                                          done = true;
                                        }));
  bed->run_for(SimTime::seconds(5));
  ASSERT_TRUE(done);
  EXPECT_FALSE(stats.success);

  // The process never left and keeps running.
  auto still = bed->node(0).node.find(proc->pid());
  ASSERT_NE(still, nullptr);
  EXPECT_FALSE(still->frozen());
  const auto* app = static_cast<const dve::ZoneServerApp*>(still->app().get());
  const std::uint64_t ticks = app->ticks();
  bed->run_for(SimTime::seconds(1));
  EXPECT_GT(app->ticks(), ticks);
  // And the migd is free for the next attempt.
  EXPECT_FALSE(bed->node(0).migd.busy_sending());
}

TEST_F(Live2Fixture, ConnectionArrivingMidFreezeCompletesAfterRestore) {
  // Stop-and-copy gives a long, predictable freeze window; a client SYN landing
  // inside it is captured on the destination and the handshake completes there.
  dve::ZoneServerConfig zs;
  zs.zone = 5;
  zs.use_db = false;
  zs.heap_bytes = 16ull << 20;  // ~130 ms frozen
  auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
  bed->run_for(SimTime::seconds(1));

  MigrationStats stats;
  bool done = false;
  bed->node(0).migd.migrate(
      proc->pid(), bed->node(1).node.local_addr(),
      MigrateOptions{SocketMigStrategy::collective, /*live=*/false},
      [&](const MigrationStats& s) {
        stats = s;
        done = true;
      });

  auto& host = bed->make_client_host();
  dve::TcpDveClient late(host, bed->public_ip());
  bed->engine().schedule_after(SimTime::milliseconds(60), [&] {
    late.connect_to_zone(5);  // lands squarely inside the freeze
  });

  bed->run_for(SimTime::seconds(6));
  ASSERT_TRUE(done && stats.success);
  EXPECT_GT(stats.captured, 0u);  // the SYN (and its retransmits) were captured
  EXPECT_TRUE(late.connected());
  EXPECT_EQ(late.resets_seen(), 0u);
  auto moved = bed->node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(static_cast<const dve::ZoneServerApp*>(moved->app().get())->client_count(),
            1u);
}

TEST_F(Live2Fixture, UnacceptedChildMigratesInsideListener) {
  // A connection sits fully established in the listener's accept queue — the
  // app has not accepted it yet. It must ride along inside the listener image.
  auto proc = bed->node(0).node.spawn("plain_listener");
  proc->mem().mmap(1 << 20, proc::prot_read | proc::prot_write, "[heap]");
  auto listener = bed->node(0).node.stack().make_tcp();
  listener->bind(bed->node(0).node.public_addr(), 23456);
  listener->listen(8);
  const Fd lfd = proc->files().attach_socket(listener);

  auto& host = bed->make_client_host();
  auto client = host.stack().make_tcp();
  client->bind(host.addr(), 0);
  client->connect(net::Endpoint{bed->public_ip(), 23456});
  bed->run_for(SimTime::milliseconds(200));
  ASSERT_EQ(listener->accept_queue_length(), 1u);

  const auto stats =
      dve::migrate_and_wait(*bed, proc->pid(), 0, 2, {SocketMigStrategy::collective},
                            SimTime::seconds(3));
  ASSERT_TRUE(stats && stats->success);

  auto moved = bed->node(2).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  auto& moved_listener =
      static_cast<stack::TcpSocket&>(*moved->files().get(lfd).socket);
  ASSERT_EQ(moved_listener.accept_queue_length(), 1u);
  auto server_side = moved_listener.accept();
  ASSERT_NE(server_side, nullptr);

  // The deferred connection is fully usable on the destination.
  client->send(Buffer(500, 0xEE));
  bed->run_for(SimTime::milliseconds(100));
  EXPECT_EQ(server_side->read_bytes().size(), 500u);
  server_side->send(Buffer(300, 0xDD));
  bed->run_for(SimTime::milliseconds(100));
  EXPECT_EQ(client->read_bytes().size(), 300u);
}

TEST_F(Live2Fixture, IterativeWithMixedUdpAndTcpSockets) {
  // A process owning an OpenArena-style UDP socket *and* TCP connections takes
  // the per-socket iterative path across both protocols.
  auto proc = bed->node(0).node.spawn("mixed");
  proc->mem().mmap(1 << 20, proc::prot_read | proc::prot_write, "[heap]");
  auto udp = bed->node(0).node.stack().make_udp();
  udp->bind(bed->node(0).node.public_addr(), 31000);
  proc->files().attach_socket(udp);
  const Fd ufd = 3;

  auto listener = bed->node(0).node.stack().make_tcp();
  listener->bind(bed->node(0).node.public_addr(), 31001);
  listener->listen(8);
  proc->files().attach_socket(listener);

  auto& host = bed->make_client_host();
  auto tcp_client = host.stack().make_tcp();
  tcp_client->bind(host.addr(), 0);
  tcp_client->connect(net::Endpoint{bed->public_ip(), 31001});
  auto udp_client = host.stack().make_udp();
  udp_client->bind(host.addr(), 0);
  udp_client->send_to(net::Endpoint{bed->public_ip(), 31000}, Buffer{1, 2});
  bed->run_for(SimTime::milliseconds(200));
  auto accepted = listener->accept();
  ASSERT_NE(accepted, nullptr);
  const Fd afd = proc->files().attach_socket(accepted);

  const auto stats =
      dve::migrate_and_wait(*bed, proc->pid(), 0, 1, {SocketMigStrategy::iterative},
                            SimTime::seconds(3));
  ASSERT_TRUE(stats && stats->success);
  EXPECT_EQ(stats->socket_count, 3u);

  auto moved = bed->node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  // The queued datagram survived inside the UDP socket image.
  auto& moved_udp = static_cast<stack::UdpSocket&>(*moved->files().get(ufd).socket);
  ASSERT_EQ(moved_udp.pending(), 1u);
  EXPECT_EQ(moved_udp.recv()->data, (Buffer{1, 2}));
  // The accepted TCP connection still works.
  auto& moved_tcp = static_cast<stack::TcpSocket&>(*moved->files().get(afd).socket);
  tcp_client->send(Buffer(100, 0x44));
  bed->run_for(SimTime::milliseconds(100));
  EXPECT_EQ(moved_tcp.read_bytes().size(), 100u);
}

// All strategies share one freeze pipeline, batch by batch. A process with
// no sockets gives the iterative strategy no batch at all, so it sends no
// capture_request; collective and incremental still run their one (empty)
// batch, so the destination arms an empty capture request first.
TEST_F(Live2Fixture, SocketlessProcessFreezesPerStrategy) {
  struct CaptureRequests : mig::FrameChannel::Observer {
    int sent = 0;
    void on_channel_frame(const mig::FrameChannel&, bool outbound, mig::MsgType type,
                          std::size_t) override {
      if (outbound && type == mig::MsgType::capture_request) sent += 1;
    }
  };
  const std::pair<SocketMigStrategy, int> cases[] = {
      {SocketMigStrategy::iterative, 0},
      {SocketMigStrategy::collective, 1},
      {SocketMigStrategy::incremental_collective, 1},
  };
  for (const auto& [strategy, requests] : cases) {
    SCOPED_TRACE(mig::strategy_name(strategy));
    auto proc = bed->node(0).node.spawn("socketless");
    proc->mem().mmap(1 << 20, proc::prot_read | proc::prot_write, "[heap]");
    CaptureRequests counter;
    mig::FrameChannel::set_observer(&counter);
    MigrateOptions options;
    options.strategy = strategy;
    const MigrationStats stats =
        dve::migrate_and_wait(*bed, proc->pid(), 0, 1, options,
                              SimTime::seconds(6)).value();
    mig::FrameChannel::set_observer(nullptr);
    EXPECT_TRUE(stats.success);
    EXPECT_EQ(stats.socket_count, 0u);
    EXPECT_EQ(stats.freeze_socket_bytes, 0u);
    EXPECT_EQ(counter.sent, requests);
    EXPECT_NE(bed->node(1).node.find(proc->pid()), nullptr);
  }
}

TEST_F(Live2Fixture, BackToBackMigrationsReuseMigd) {
  dve::ZoneServerConfig zs;
  zs.use_db = false;
  zs.heap_bytes = 2ull << 20;
  std::vector<Pid> pids;
  for (dve::ZoneId z = 1; z <= 3; ++z) {
    zs.zone = z;
    pids.push_back(dve::ZoneServerApp::launch(bed->node(0).node, zs)->pid());
  }
  bed->run_for(SimTime::milliseconds(300));
  for (const Pid pid : pids) {
    const MigrationStats s =
        dve::migrate_and_wait(*bed, pid, 0, 1,
                              {SocketMigStrategy::incremental_collective, true},
                              SimTime::seconds(6)).value();
    ASSERT_TRUE(s.success);
  }
  EXPECT_EQ(bed->node(0).node.processes().size(), 0u);
  EXPECT_EQ(bed->node(1).node.processes().size(), 3u);
}

// A client's RST that lands after the freeze began but before the subtract
// stage closes the server socket, and drop_client() refuses to run while the
// process is frozen, so the CLOSED socket migrates as it is. Neither the
// destination's restore nor the source's rollback may hash it: the resumed
// zone server reaps the fd, but close() on a CLOSED socket does nothing, so an
// ehash entry would dangle for good (dvemig-verify's ehash.bad-state).
struct ClosedSocketFixture : ::testing::Test {
  std::unique_ptr<dve::Testbed> bed;
  // Declared after `bed` so it detaches from the engine before teardown.
  std::unique_ptr<check::Verifier> verify;
  std::vector<std::size_t> ehash_before;

  void SetUp() override {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    cfg.with_db = false;
    bed = std::make_unique<dve::Testbed>(cfg);
    check::VerifierConfig vcfg;
    vcfg.abort_on_violation = false;
    vcfg.every_n_events = 32;
    verify = std::make_unique<check::Verifier>(bed->engine(), vcfg);
    for (std::size_t i = 0; i < bed->node_count(); ++i) {
      verify->watch_stack(bed->node(i).node.stack());
    }
  }

  void TearDown() override { mig::FrameChannel::set_fault_hook(nullptr); }

  std::size_t ehash_size(std::size_t node) {
    return bed->node(node).node.stack().table().ehash_size();
  }

  /// Launch a zone server with one raw TCP client, send the client's RST, and
  /// start a stop-and-copy migration to node 1 while the RST is in flight.
  /// Returns the server's pid once the 3 s run is over.
  Pid migrate_with_rst_in_flight(MigrationStats& stats, bool& done) {
    dve::ZoneServerConfig zs;
    zs.zone = 1;
    zs.use_db = false;
    auto proc = dve::ZoneServerApp::launch(bed->node(0).node, zs);
    for (std::size_t i = 0; i < bed->node_count(); ++i) {
      ehash_before.push_back(ehash_size(i));
    }
    auto& host = bed->make_client_host();
    auto client = host.stack().make_tcp();
    client->bind(host.addr(), 0);
    client->connect(net::Endpoint{bed->public_ip(), dve::zone_port(1)});
    bed->run_for(SimTime::milliseconds(200));
    EXPECT_EQ(client->state(), stack::TcpState::established);

    client->abort();
    bed->run_for(SimTime::microseconds(60));
    EXPECT_TRUE(bed->node(0).migd.migrate(
        proc->pid(), bed->node(1).node.local_addr(),
        MigrateOptions{SocketMigStrategy::collective, /*live=*/false},
        [&](const MigrationStats& s) {
          stats = s;
          done = true;
        }));
    bed->run_for(SimTime::seconds(3));
    return proc->pid();
  }

  void expect_clean_tables() {
    EXPECT_TRUE(verify->clean()) << verify->violation_count() << " violations, first "
                                 << verify->violations().front().rule << ": "
                                 << verify->violations().front().detail;
    for (std::size_t i = 0; i < bed->node_count(); ++i) {
      EXPECT_EQ(ehash_size(i), ehash_before[i]) << "node " << i;
    }
  }
};

TEST_F(ClosedSocketFixture, RestoreDoesNotHashClosedSocket) {
  MigrationStats stats;
  bool done = false;
  const Pid pid = migrate_with_rst_in_flight(stats, done);
  ASSERT_TRUE(done);
  EXPECT_TRUE(stats.success);
  auto moved = bed->node(1).node.find(pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(static_cast<const dve::ZoneServerApp*>(moved->app().get())->client_count(),
            0u);
  expect_clean_tables();
}

TEST_F(ClosedSocketFixture, RollbackDoesNotHashClosedSocket) {
  // Dropping the socket image makes the destination give up, so the source
  // rolls the freeze back and resumes the process in place.
  struct DropSocketState : mig::FrameChannel::FaultHook {
    mig::FrameChannel::FaultAction on_send(const mig::FrameChannel& /*ch*/,
                                           mig::MsgType type,
                                           std::size_t /*payload_len*/) override {
      return type == mig::MsgType::socket_state
                 ? mig::FrameChannel::FaultAction::drop
                 : mig::FrameChannel::FaultAction::pass;
    }
  } hook;
  mig::FrameChannel::set_fault_hook(&hook);
  MigrationStats stats;
  bool done = false;
  const Pid pid = migrate_with_rst_in_flight(stats, done);
  ASSERT_TRUE(done);
  EXPECT_FALSE(stats.success);
  auto still = bed->node(0).node.find(pid);
  ASSERT_NE(still, nullptr);
  EXPECT_FALSE(still->frozen());
  EXPECT_EQ(static_cast<const dve::ZoneServerApp*>(still->app().get())->client_count(),
            0u);
  expect_clean_tables();
}

}  // namespace
}  // namespace dvemig
