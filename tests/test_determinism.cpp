// Reproducibility: identical configurations must produce bit-identical packet
// timelines, migration timings and experiment outputs — the property every
// benchmark in bench/ relies on.
#include <gtest/gtest.h>

#include "src/dve/scenario.hpp"
#include "src/dve/zone_server.hpp"
#include "src/stack/tracer.hpp"

namespace dvemig {
namespace {

std::string run_traced_scenario() {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  stack::PacketTracer tracer(bed.node(1).node.stack());

  dve::ZoneServerConfig zs;
  zs.zone = 3;
  zs.active_updates = true;
  const dve::ZoneServerPoint world(bed, zs, {.count = 6, .message_bytes = 40});
  bed.run_for(SimTime::seconds(1));

  EXPECT_TRUE(dve::migrate_and_wait(bed, world.proc->pid(), 0, 1,
                                    {mig::SocketMigStrategy::incremental_collective},
                                    SimTime::seconds(3)));
  return tracer.dump();
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalPacketTimelines) {
  const std::string first = run_traced_scenario();
  const std::string second = run_traced_scenario();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, MigrationStatsBitIdenticalAcrossRuns) {
  auto run_once = [] {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    dve::Testbed bed(cfg);
    dve::ZoneServerConfig zs;
    zs.zone = 1;
    zs.db_addr = bed.db_node()->local_addr();
    auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
    bed.run_for(SimTime::seconds(1));
    return dve::migrate_and_wait(bed, proc->pid(), 0, 1,
                                 {mig::SocketMigStrategy::collective}, SimTime::seconds(3))
        .value();
  };
  const mig::MigrationStats a = run_once();
  const mig::MigrationStats b = run_once();
  EXPECT_EQ(a.t_freeze_begin.ns, b.t_freeze_begin.ns);
  EXPECT_EQ(a.t_resume.ns, b.t_resume.ns);
  EXPECT_EQ(a.precopy_channel_bytes, b.precopy_channel_bytes);
  EXPECT_EQ(a.freeze_channel_bytes, b.freeze_channel_bytes);
  EXPECT_EQ(a.freeze_socket_bytes, b.freeze_socket_bytes);
  EXPECT_EQ(a.captured, b.captured);
}

TEST(DeterminismTest, PopulationMovementReproducible) {
  auto run_once = [] {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 5;
    cfg.with_db = false;
    dve::Testbed bed(cfg);
    dve::ZoneServerConfig zs;
    zs.use_db = false;
    zs.heap_bytes = 1 << 20;
    dve::PopulationConfig pc;
    pc.client_count = 400;
    pc.move_start = SimTime::seconds(3);
    pc.move_step_prob = 0.3;
    dve::Dve world(bed, dve::ZoneGrid{}, zs, pc);
    const dve::Population& pop = world.population();
    bed.run_for(SimTime::seconds(20));
    return pop.clients_per_zone();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dvemig
