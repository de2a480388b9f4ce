// Property-style parameterized sweeps over the core invariants:
//  - TCP delivers an exact byte stream under any drop pattern;
//  - live migration is transparent for any client count and any strategy;
//  - the conductor equalizes any initial imbalance without losing processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/dve/population.hpp"
#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"
#include "src/net/switch.hpp"
#include "src/stack/tcp_socket.hpp"

namespace dvemig {
namespace {

// ------------------------------------------------- TCP stream-integrity sweep

struct TcpLossCase {
  int drop_every_nth;   // 0 = no loss
  std::size_t bytes;
};

class TcpStreamIntegrity : public ::testing::TestWithParam<TcpLossCase> {};

TEST_P(TcpStreamIntegrity, ExactByteStreamUnderLoss) {
  const TcpLossCase param = GetParam();
  sim::Engine engine;
  net::Switch sw(engine, net::LinkConfig{1e9, SimTime::microseconds(25)});
  stack::NetStack a(engine, "a", SimTime::seconds(11));
  stack::NetStack b(engine, "b", SimTime::seconds(77));
  const auto addr_a = net::Ipv4Addr::octets(10, 0, 0, 1);
  const auto addr_b = net::Ipv4Addr::octets(10, 0, 0, 2);
  a.add_interface(addr_a, sw.attach(addr_a, [&](net::Packet p) { a.rx(std::move(p)); }));
  b.add_interface(addr_b, sw.attach(addr_b, [&](net::Packet p) { b.rx(std::move(p)); }));

  auto listener = b.make_tcp();
  listener->bind(addr_b, 9000);
  listener->listen(4);
  auto client = a.make_tcp();
  client->connect(net::Endpoint{addr_b, 9000});
  engine.run();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  int counter = 0;
  stack::HookHandle drop;
  if (param.drop_every_nth > 0) {
    drop = b.netfilter().register_hook(
        stack::Hook::local_in, -100, [&](net::Packet& p) {
          if (p.proto != net::IpProto::tcp || p.payload.empty()) {
            return stack::Verdict::accept;
          }
          return ++counter % param.drop_every_nth == 0 ? stack::Verdict::drop
                                                       : stack::Verdict::accept;
        });
  }

  Buffer sent(param.bytes);
  Rng rng(param.bytes ^ 0xABCD);
  for (auto& byte : sent) byte = static_cast<std::uint8_t>(rng.next_u64());
  Buffer got;
  server->set_on_readable([&] {
    Buffer chunk = server->read_bytes().copy();
    got.insert(got.end(), chunk.begin(), chunk.end());
  });
  client->send(sent);
  engine.run_until(engine.now() + SimTime::seconds(30));
  ASSERT_EQ(got.size(), sent.size());
  EXPECT_EQ(got, sent);
  drop.release();
}

INSTANTIATE_TEST_SUITE_P(
    LossPatterns, TcpStreamIntegrity,
    ::testing::Values(TcpLossCase{0, 200'000},    // clean path
                      TcpLossCase{23, 200'000},   // ~4 % loss
                      TcpLossCase{9, 120'000},    // ~11 % loss
                      TcpLossCase{4, 50'000},     // brutal 25 % loss
                      TcpLossCase{7, 1'000}),     // tiny transfer, early loss
    [](const auto& suite_info) {
      return "drop" + std::to_string(suite_info.param.drop_every_nth) + "_bytes" +
             std::to_string(suite_info.param.bytes);
    });

// --------------------------------------------- migration-transparency sweep

class MigrationScaling
    : public ::testing::TestWithParam<std::tuple<int, mig::SocketMigStrategy>> {};

TEST_P(MigrationScaling, TransparentForAnyClientCount) {
  const auto [nclients, strategy] = GetParam();
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);

  dve::ZoneServerConfig zs;
  zs.zone = 7;
  zs.active_updates = true;
  zs.per_client_cores = 0.0002;
  const dve::ZoneServerPoint world(
      bed, zs, {.count = static_cast<std::size_t>(nclients), .message_bytes = 32});
  const auto& proc = world.proc;
  const auto& clients = world.clients;
  bed.run_for(SimTime::seconds(2));

  const auto stats =
      dve::migrate_and_wait(bed, proc->pid(), 0, 1, {strategy}, SimTime::seconds(5));
  ASSERT_TRUE(stats && stats->success);
  bed.run_for(SimTime::seconds(1));

  auto moved = bed.node(1).node.find(proc->pid());
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(static_cast<const dve::ZoneServerApp*>(moved->app().get())->client_count(),
            static_cast<std::size_t>(nclients));
  for (const auto& c : clients) {
    EXPECT_TRUE(c->connected());
    EXPECT_EQ(c->resets_seen(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClientCounts, MigrationScaling,
    ::testing::Combine(::testing::Values(1, 16, 96),
                       ::testing::Values(mig::SocketMigStrategy::iterative,
                                         mig::SocketMigStrategy::collective,
                                         mig::SocketMigStrategy::incremental_collective)),
    [](const auto& suite_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(suite_info.param));
      name += '_';
      name += mig::strategy_name(std::get<1>(suite_info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ------------------------------------------------- load-balancing convergence

class LbConvergence : public ::testing::TestWithParam<int> {};

TEST_P(LbConvergence, EqualizesAnyInitialSplit) {
  // All `n` equal-weight processes start on node 1 of a 2-node cluster; the
  // conductors must end with a near-even split, never losing a process.
  const int n = GetParam();
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.policy.calm_down = SimTime::seconds(2);
  dve::Testbed bed(cfg);

  const double per_proc = 1.5 / n;  // total demand 1.5 of 2 cores
  for (int i = 0; i < n; ++i) {
    dve::ZoneServerConfig zs;
    zs.zone = static_cast<dve::ZoneId>(i);
    zs.use_db = false;
    zs.base_cores = per_proc;
    zs.heap_bytes = 1 << 20;
    dve::ZoneServerApp::launch(bed.node(0).node, zs);
  }
  for (std::size_t i = 0; i < 2; ++i) bed.node(i).conductor.set_enabled(true);
  bed.run_for(SimTime::seconds(60));

  const std::size_t on0 = bed.node(0).node.processes().size();
  const std::size_t on1 = bed.node(1).node.processes().size();
  EXPECT_EQ(on0 + on1, static_cast<std::size_t>(n));  // nothing lost
  EXPECT_LE(on0 > on1 ? on0 - on1 : on1 - on0, 2u);   // near-even split
  EXPECT_NEAR(bed.node(0).node.cpu().node_utilization(),
              bed.node(1).node.cpu().node_utilization(), 0.2);
}

INSTANTIATE_TEST_SUITE_P(Splits, LbConvergence, ::testing::Values(4, 6, 10),
                         [](const auto& suite_info) {
                           return "procs" + std::to_string(suite_info.param);
                         });

}  // namespace
}  // namespace dvemig
