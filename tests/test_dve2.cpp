// Second DVE batch: client metrics, fragmented DB protocol frames, handoff
// bookkeeping, and zone-server/population consistency under churn.
#include <gtest/gtest.h>

#include "src/dve/game_server.hpp"
#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"

namespace dvemig::dve {
namespace {

TEST(UdpGameClientMetrics, MaxGapReflectsServerStall) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  GameServerConfig gs;
  auto proc = GameServerApp::launch(bed.node(0).node, gs);
  UdpGameClient client(bed.make_client_host(), net::Endpoint{bed.public_ip(), gs.port});
  client.start();
  bed.run_for(SimTime::seconds(2));

  // Freeze the server for 180 ms: the client sees a gap of ~180+50 ms.
  bed.engine().schedule_after(SimTime::milliseconds(10), [&] { proc->freeze(); });
  bed.engine().schedule_after(SimTime::milliseconds(190), [&] { proc->resume(); });
  const SimTime from = bed.engine().now();
  bed.run_for(SimTime::seconds(2));

  const double gap_ms = client.max_gap(from, bed.engine().now()).to_ms();
  EXPECT_GT(gap_ms, 150.0);
  EXPECT_LT(gap_ms, 300.0);
}

TEST(UdpGameClientMetrics, MissingSnapshotsCountsSeqHoles) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  GameServerConfig gs;
  auto proc = GameServerApp::launch(bed.node(0).node, gs);
  UdpGameClient client(bed.make_client_host(), net::Endpoint{bed.public_ip(), gs.port});
  client.start();
  bed.run_for(SimTime::seconds(1));

  // Drop exactly three snapshots at the server's LOCAL_OUT hook.
  auto remaining = std::make_shared<int>(3);
  stack::HookHandle drop = bed.node(0).node.stack().netfilter().register_hook(
      stack::Hook::local_out, -10, [remaining](net::Packet& p) {
        if (p.proto == net::IpProto::udp && p.sport() == 27960 && *remaining > 0) {
          --*remaining;
          return stack::Verdict::drop;
        }
        return stack::Verdict::accept;
      });
  bed.run_for(SimTime::seconds(2));
  EXPECT_EQ(client.missing_snapshots(), 3u);
  drop.release();
  (void)proc;
}

TEST(DatabaseProtocol, QueryFragmentedAcrossSendsStillAnswered) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  auto client = bed.node(0).node.stack().make_tcp();
  client->bind(bed.node(0).node.local_addr(), 0);
  client->connect(net::Endpoint{bed.db_node()->local_addr(), kDbPort});
  bed.run_for(SimTime::milliseconds(50));

  // Length prefix in one send, body split across two more.
  BinaryWriter prefix;
  prefix.u32(100);
  client->send(prefix.take());
  bed.run_for(SimTime::milliseconds(20));
  client->send(Buffer(60, 0x51));
  bed.run_for(SimTime::milliseconds(20));
  EXPECT_EQ(bed.db()->queries_served(), 0u);  // still incomplete
  client->send(Buffer(40, 0x51));
  bed.run_for(SimTime::milliseconds(50));
  EXPECT_EQ(bed.db()->queries_served(), 1u);
  EXPECT_GE(client->read_bytes().size(), 4u);
}

TEST(DatabaseProtocol, PipelinedQueriesAllAnswered) {
  TestbedConfig cfg;
  cfg.dve_nodes = 1;
  Testbed bed(cfg);
  auto client = bed.node(0).node.stack().make_tcp();
  client->bind(bed.node(0).node.local_addr(), 0);
  client->connect(net::Endpoint{bed.db_node()->local_addr(), kDbPort});
  bed.run_for(SimTime::milliseconds(50));

  BinaryWriter w;
  for (int i = 0; i < 10; ++i) {
    w.u32(32);
    w.bytes(Buffer(32, 0x51));
  }
  client->send(w.take());  // 10 queries in one TCP burst
  bed.run_for(SimTime::milliseconds(100));
  EXPECT_EQ(bed.db()->queries_served(), 10u);
  // 10 responses of (4 + 64) bytes each.
  EXPECT_EQ(client->read_bytes().size(), 10u * 68u);
}

TEST(ZoneHandoff, ClientMovesBetweenZonesCleanly) {
  TestbedConfig cfg;
  cfg.dve_nodes = 2;
  Testbed bed(cfg);
  ZoneServerConfig zs;
  zs.use_db = false;
  zs.zone = 10;
  auto p1 = ZoneServerApp::launch(bed.node(0).node, zs);
  zs.zone = 20;
  auto p2 = ZoneServerApp::launch(bed.node(1).node, zs);

  TcpDveClient client(bed.make_client_host(), bed.public_ip());
  client.connect_to_zone(10);
  bed.run_for(SimTime::milliseconds(300));
  auto* a1 = static_cast<const ZoneServerApp*>(p1->app().get());
  auto* a2 = static_cast<const ZoneServerApp*>(p2->app().get());
  EXPECT_EQ(a1->client_count(), 1u);
  EXPECT_EQ(a2->client_count(), 0u);
  EXPECT_EQ(client.zone(), 10u);

  client.connect_to_zone(20);  // handoff: close + reconnect to the new port
  bed.run_for(SimTime::milliseconds(500));
  EXPECT_EQ(a1->client_count(), 0u);  // old server noticed the FIN
  EXPECT_EQ(a2->client_count(), 1u);
  EXPECT_EQ(client.zone(), 20u);
  EXPECT_EQ(client.resets_seen(), 0u);
}

TEST(ZoneConsistency, PopulationAndServersAgreeUnderChurn) {
  TestbedConfig cfg;
  cfg.dve_nodes = 5;
  cfg.with_db = false;
  Testbed bed(cfg);
  ZoneServerConfig zs;
  zs.use_db = false;
  zs.heap_bytes = 1 << 20;
  PopulationConfig pc;
  pc.client_count = 600;
  pc.move_start = SimTime::seconds(3);
  pc.move_step_prob = 0.4;
  Dve world(bed, ZoneGrid{}, zs, pc);
  const Population& pop = world.population();
  bed.run_for(SimTime::seconds(30));
  // Let in-flight handoffs settle, then compare the two views of the world.
  bed.run_for(SimTime::seconds(2));

  const auto by_population = pop.clients_per_zone();
  std::size_t total_on_servers = 0;
  for (const auto& proc : world.servers()) {
    const auto* app = static_cast<const ZoneServerApp*>(proc->app().get());
    EXPECT_EQ(app->client_count(), by_population[app->config().zone])
        << "zone " << app->config().zone;
    total_on_servers += app->client_count();
  }
  EXPECT_EQ(total_on_servers, 600u);
  EXPECT_EQ(pop.total_resets(), 0u);
}

}  // namespace
}  // namespace dvemig::dve
