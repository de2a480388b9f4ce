// Accounting and bookkeeping: migration CPU charges, socket-table stress,
// connected-UDP in-cluster migration, stats plumbing, and fd-table hygiene
// across a migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"

namespace dvemig {
namespace {

TEST(SocketTableStress, ManyListenersAndConnections) {
  sim::Engine engine;
  net::Switch sw(engine, net::LinkConfig{});
  stack::NetStack a(engine, "a", SimTime::seconds(1));
  stack::NetStack b(engine, "b", SimTime::seconds(2));
  const auto addr_a = net::Ipv4Addr::octets(10, 0, 0, 1);
  const auto addr_b = net::Ipv4Addr::octets(10, 0, 0, 2);
  a.add_interface(addr_a, sw.attach(addr_a, [&](net::Packet p) { a.rx(std::move(p)); }));
  b.add_interface(addr_b, sw.attach(addr_b, [&](net::Packet p) { b.rx(std::move(p)); }));

  std::vector<stack::TcpSocket::Ptr> listeners;
  for (net::Port port = 20000; port < 20050; ++port) {
    auto l = b.make_tcp();
    l->bind(addr_b, port);
    l->listen(8);
    listeners.push_back(l);
  }
  std::vector<stack::TcpSocket::Ptr> clients;
  for (int i = 0; i < 200; ++i) {
    auto c = a.make_tcp();
    c->connect(net::Endpoint{addr_b, static_cast<net::Port>(20000 + i % 50)});
    clients.push_back(c);
  }
  engine.run();
  EXPECT_EQ(b.table().ehash_size(), 200u);
  EXPECT_EQ(b.table().bhash_size(), 50u);
  for (const auto& c : clients) {
    EXPECT_EQ(c->state(), stack::TcpState::established);
  }
  // Tear everything down; the tables must drain completely.
  for (auto& c : clients) c->close();
  for (auto& l : listeners) l->close();
  engine.run_until(engine.now() + SimTime::seconds(5));
  EXPECT_EQ(a.table().ehash_size(), 0u);
  EXPECT_EQ(b.table().ehash_size(), 0u);
  EXPECT_EQ(b.table().bhash_size(), 0u);
}

TEST(MigrationAccounting, KernelWorkChargedToCpuMeters) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.use_db = false;
  zs.base_cores = 0.0;  // the app itself is idle: all load below is migration work
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  bed.run_for(SimTime::milliseconds(500));

  bool done = false;
  bed.node(0).migd.migrate(proc->pid(), bed.node(1).node.local_addr(),
                           {mig::SocketMigStrategy::collective},
                           [&](const mig::MigrationStats&) { done = true; });
  // The meter reports completed 1 s windows: sample the kernel pseudo-pid's
  // usage across the run and keep the peak.
  double peak_kernel_cores = 0;
  for (int i = 1; i <= 30; ++i) {
    bed.engine().schedule_after(SimTime::milliseconds(100 * i), [&] {
      peak_kernel_cores =
          std::max(peak_kernel_cores, bed.node(0).node.cpu().process_cores(Pid{1}));
    });
  }
  bed.run_for(SimTime::seconds(3));
  ASSERT_TRUE(done);
  // The dirty-page gathering (12 MiB image -> ~3000 pages x 0.7 us) was charged
  // to the source node's meter under the kernel pseudo-pid.
  EXPECT_GT(peak_kernel_cores, 0.0);
}

TEST(MigrationAccounting, FdTableIdenticalAfterMigration) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 2;
  zs.db_addr = bed.db_node()->local_addr();
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  bed.run_for(SimTime::milliseconds(500));

  // Record the fd layout before the move.
  std::map<Fd, proc::FileKind> before;
  for (const auto& [fd, f] : proc->files().entries()) before[fd] = f.kind;
  ASSERT_EQ(proc->files().socket_count(), 2u);  // listener + DB session
  ASSERT_EQ(before.size(), 3u);                 // + the log file

  ASSERT_TRUE(dve::migrate_and_wait(bed, proc->pid(), 0, 1,
                                    {mig::SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)));

  auto moved = bed.node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  std::map<Fd, proc::FileKind> after;
  for (const auto& [fd, f] : moved->files().entries()) after[fd] = f.kind;
  EXPECT_EQ(before, after);  // same fds, same kinds, nothing leaked or lost
  // The regular file was re-opened by path at the same fd.
  for (const auto& [fd, f] : moved->files().entries()) {
    if (f.kind == proc::FileKind::regular) {
      EXPECT_EQ(f.path, "/var/log/zone_2.log");
    } else {
      EXPECT_NE(f.socket, nullptr);
      EXPECT_FALSE(f.socket->migration_disabled());
    }
  }
}

TEST(MigrationAccounting, ConnectedUdpInClusterMigratesWithTranslation) {
  // A connected UDP socket toward an in-cluster peer (e.g. a metrics daemon)
  // takes the same translation path as TCP.
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  cfg.with_db = false;
  dve::Testbed bed(cfg);

  // Peer service on node 3's local address.
  auto peer = bed.node(2).node.stack().make_udp();
  peer->bind(bed.node(2).node.local_addr(), 8125);

  auto proc = bed.node(0).node.spawn("udp_emitter");
  proc->mem().mmap(1 << 20, proc::prot_read | proc::prot_write, "[heap]");
  auto sock = bed.node(0).node.stack().make_udp();
  sock->bind(bed.node(0).node.local_addr(), 0);
  sock->connect(net::Endpoint{bed.node(2).node.local_addr(), 8125});
  sock->send(Buffer{1});
  const Fd fd = proc->files().attach_socket(sock);
  bed.run_for(SimTime::milliseconds(100));
  ASSERT_EQ(peer->pending(), 1u);

  const auto stats =
      dve::migrate_and_wait(bed, proc->pid(), 0, 1, {mig::SocketMigStrategy::collective},
                            SimTime::seconds(3));
  ASSERT_TRUE(stats && stats->success);

  auto moved = bed.node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  auto& moved_sock = static_cast<stack::UdpSocket&>(*moved->files().get(fd).socket);
  moved_sock.send(Buffer{2});
  bed.run_for(SimTime::milliseconds(100));
  ASSERT_EQ(peer->pending(), 2u);
  (void)peer->recv();
  const auto dgram = peer->recv();
  ASSERT_TRUE(dgram.has_value());
  // The translation filter rewrites the source back to the original address:
  // the peer never learns the emitter moved.
  EXPECT_EQ(dgram->from.addr, bed.node(0).node.local_addr());
  EXPECT_EQ(dgram->data, (Buffer{2}));
}

TEST(MigrationAccounting, StatsBytesAreConsistent) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 3;
  zs.use_db = false;
  zs.heap_bytes = 4ull << 20;
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  bed.run_for(SimTime::milliseconds(500));

  const auto stats =
      dve::migrate_and_wait(bed, proc->pid(), 0, 1, {mig::SocketMigStrategy::collective},
                            SimTime::seconds(3));
  ASSERT_TRUE(stats);
  EXPECT_GE(stats->t_freeze_begin, stats->t_start);
  EXPECT_GE(stats->t_resume, stats->t_freeze_begin);
  // The 4 MiB heap rides the precopy; freeze moves only deltas + metadata.
  EXPECT_GT(stats->precopy_channel_bytes, 4u << 20);
  EXPECT_LT(stats->freeze_channel_bytes, stats->precopy_channel_bytes);
  EXPECT_LE(stats->freeze_socket_bytes, stats->freeze_channel_bytes);
  EXPECT_EQ(stats->socket_count, 1u);  // just the listener
  EXPECT_EQ(stats->reinjected, stats->captured);
}

TEST(MigrationAccounting, WorkerThreadsRideTheImage) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 4;
  zs.use_db = false;
  zs.worker_threads = 7;
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  ASSERT_EQ(proc->threads().size(), 8u);
  const auto tid_regs = proc->threads()[3].gp_regs;
  bed.run_for(SimTime::milliseconds(300));

  ASSERT_TRUE(dve::migrate_and_wait(bed, proc->pid(), 0, 1,
                                    {mig::SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)));
  auto moved = bed.node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  ASSERT_EQ(moved->threads().size(), 8u);
  EXPECT_EQ(moved->threads()[3].gp_regs, tid_regs);  // register files preserved
}

}  // namespace
}  // namespace dvemig
