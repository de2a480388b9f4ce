// Mutual migration of in-cluster peers — the "careful synchronization among the
// hosts involved" the paper defers to future work (Section VI-C).
//
// Two processes hold a direct TCP connection to each other. Either end may
// migrate, repeatedly and in any order; the translation machinery must resolve
// where the peer *currently* lives (via the local translation rules), retarget
// the restored socket, and clean up rules whose subject moved away.
#include <gtest/gtest.h>

#include "src/dve/scenario.hpp"

namespace dvemig {
namespace {

using mig::MigrationStats;
using mig::SocketMigStrategy;

struct MutualFixture : ::testing::Test {
  std::unique_ptr<dve::Testbed> bed;
  std::shared_ptr<proc::Process> proc_a;
  std::shared_ptr<proc::Process> proc_b;
  Fd fd_a{-1};
  Fd fd_b{-1};
  // Where each process currently runs (node index).
  std::size_t at_a{0};
  std::size_t at_b{1};

  void SetUp() override {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 3;
    cfg.with_db = false;
    bed = std::make_unique<dve::Testbed>(cfg);

    proc_a = bed->node(0).node.spawn("peer_a");
    proc_b = bed->node(1).node.spawn("peer_b");
    proc_a->mem().mmap(1 << 20, proc::prot_read | proc::prot_write, "[heap]");
    proc_b->mem().mmap(1 << 20, proc::prot_read | proc::prot_write, "[heap]");

    // Direct in-cluster connection A(node1) <-> B(node2), like two neighboring
    // zone servers synchronising boundary state.
    auto listener = bed->node(1).node.stack().make_tcp();
    listener->bind(bed->node(1).node.local_addr(), 25000);
    listener->listen(4);
    auto sock_a = bed->node(0).node.stack().make_tcp();
    sock_a->bind(bed->node(0).node.local_addr(), 0);
    sock_a->connect(net::Endpoint{bed->node(1).node.local_addr(), 25000});
    bed->run_for(SimTime::milliseconds(50));
    auto sock_b = listener->accept();
    ASSERT_NE(sock_b, nullptr);
    listener->close();
    fd_a = proc_a->files().attach_socket(sock_a);
    fd_b = proc_b->files().attach_socket(sock_b);
  }

  stack::TcpSocket& sock_of(std::size_t node, Pid pid, Fd fd) {
    auto proc = bed->node(node).node.find(pid);
    EXPECT_NE(proc, nullptr);
    return static_cast<stack::TcpSocket&>(*proc->files().get(fd).socket);
  }

  /// Ping-pong: data must flow in both directions across the link.
  void expect_exchange(const char* when) {
    auto& sa = sock_of(at_a, proc_a->pid(), fd_a);
    auto& sb = sock_of(at_b, proc_b->pid(), fd_b);
    (void)sa.read_bytes();
    (void)sb.read_bytes();
    sa.send(Buffer(100, 0xA1));
    bed->run_for(SimTime::milliseconds(50));
    EXPECT_EQ(sb.read_bytes().size(), 100u) << "A->B failed " << when;
    sb.send(Buffer(64, 0xB2));
    bed->run_for(SimTime::milliseconds(50));
    EXPECT_EQ(sa.read_bytes().size(), 64u) << "B->A failed " << when;
  }
};

TEST_F(MutualFixture, OneEndMigrates) {
  expect_exchange("initially");
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_a->pid(), 0, 2,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_a = 2;
  expect_exchange("after A moved");
  // The filter lives on B's host and translates both directions.
  EXPECT_EQ(bed->node(1).migd.translation().active_rules(), 1u);
  EXPECT_GT(bed->node(1).migd.translation().out_rewritten(), 0u);
}

TEST_F(MutualFixture, BothEndsMigrate) {
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_a->pid(), 0, 2,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_a = 2;
  expect_exchange("after A moved");

  // Now the *peer* of a translated connection migrates: its migd must resolve
  // A's current host from the local rule and install the new filter there.
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_b->pid(), 1, 0,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_b = 0;
  expect_exchange("after B moved too");

  // B's old host no longer needs its rule about A (cleaned up on departure)...
  EXPECT_EQ(bed->node(1).migd.translation().active_rules(), 0u);
  // ...while A's host now holds the rule about B.
  EXPECT_EQ(bed->node(2).migd.translation().active_rules(), 1u);

  // The restored B speaks to A's real location directly.
  EXPECT_EQ(sock_of(at_b, proc_b->pid(), fd_b).remote().addr,
            bed->node(2).node.local_addr());
}

TEST_F(MutualFixture, RepeatedAlternatingMigrations) {
  expect_exchange("initially");
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_a->pid(), 0, 2,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_a = 2;
  expect_exchange("A: 1 -> 3");
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_b->pid(), 1, 0,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_b = 0;
  expect_exchange("B: 2 -> 1");
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_a->pid(), 2, 1,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_a = 1;
  expect_exchange("A: 3 -> 2");
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_b->pid(), 0, 2,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_b = 2;
  expect_exchange("B: 1 -> 3");

  // Each socket addresses its peer's host *as of its own last migration* (A last
  // moved while B sat on node1; B last moved while A sat on node2)...
  EXPECT_EQ(sock_of(at_a, proc_a->pid(), fd_a).remote().addr,
            bed->node(0).node.local_addr());
  EXPECT_EQ(sock_of(at_b, proc_b->pid(), fd_b).remote().addr,
            bed->node(1).node.local_addr());
  // ...and the hosts carry the translation rules that bridge the difference
  // (B moved away from node1 after A retargeted to it).
  EXPECT_GE(bed->node(1).migd.translation().active_rules(), 1u);
}

TEST_F(MutualFixture, TrafficInFlightDuringPeerMigration) {
  // A steady stream A->B while B migrates; every byte must arrive exactly once.
  EXPECT_TRUE(dve::migrate_and_wait(*bed, proc_a->pid(), 0, 2,
                                    {SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)).value().success);
  at_a = 2;

  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  auto find_proc = [this](Pid pid) -> std::shared_ptr<proc::Process> {
    for (std::size_t n = 0; n < bed->node_count(); ++n) {
      if (auto p = bed->node(n).node.find(pid)) return p;
    }
    return nullptr;
  };
  // Sender and reader driven by engine events; both tolerate the freeze window.
  for (int i = 0; i < 150; ++i) {
    bed->engine().schedule_after(SimTime::milliseconds(20 * i), [&, this] {
      auto pa = find_proc(proc_a->pid());
      if (pa == nullptr || pa->frozen()) return;
      auto& sa = static_cast<stack::TcpSocket&>(*pa->files().get(fd_a).socket);
      if (sa.migration_disabled()) return;
      sa.send(Buffer(32, 0x77));
      sent += 32;
    });
    bed->engine().schedule_after(SimTime::milliseconds(20 * i + 10), [&, this] {
      auto pb = find_proc(proc_b->pid());
      if (pb == nullptr || pb->frozen()) return;
      auto& sb = static_cast<stack::TcpSocket&>(*pb->files().get(fd_b).socket);
      if (sb.migration_disabled()) return;
      received += sb.read_bytes().size();
    });
  }
  bool mig_done = false;
  bed->engine().schedule_after(SimTime::milliseconds(600), [&, this] {
    bed->node(1).migd.migrate(proc_b->pid(), bed->node(0).node.local_addr(),
                              {SocketMigStrategy::incremental_collective},
                              [&](const MigrationStats& s) {
                                EXPECT_TRUE(s.success);
                                at_b = 0;
                                mig_done = true;
                              });
  });
  bed->run_for(SimTime::seconds(5));
  EXPECT_TRUE(mig_done);

  auto& sb = sock_of(at_b, proc_b->pid(), fd_b);
  received += sb.read_bytes().size();
  EXPECT_EQ(received, sent);  // nothing lost, nothing duplicated
  EXPECT_GT(sent, 100u * 32u / 2);
}

}  // namespace
}  // namespace dvemig
