// Sim identity: the scenario catalogue's worlds, run as the figure benches run
// them, must reproduce these pinned outcomes exactly — every MigrationStats
// field plus the client counters the benches print. The sim clock is
// deterministic, so a host-side change moves none of them; a change that moves
// one changes the simulation, and must say why when it retakes the pin.
//
// Each test resets the pid counter first (pids seed the workload RNG), so a
// pin holds whether the tests run alone or in one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/dve/scenario.hpp"

namespace dvemig {
namespace {

using mig::SocketMigStrategy;

std::string describe(const mig::MigrationStats& s) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "pid=%u %s %s live=%d par=%d %s->%s start=%lld freeze=%lld resume=%lld "
      "rounds=%d pre=%llu/%llu frz=%llu/%llu sockets=%llu cap=%llu/%llu ok=%d",
      s.pid.value, s.proc_name.c_str(), mig::strategy_name(s.strategy), s.live ? 1 : 0,
      s.parallelism, s.src_node.to_string().c_str(), s.dst_node.to_string().c_str(),
      static_cast<long long>(s.t_start.ns), static_cast<long long>(s.t_freeze_begin.ns),
      static_cast<long long>(s.t_resume.ns), s.precopy_rounds,
      static_cast<unsigned long long>(s.precopy_channel_bytes),
      static_cast<unsigned long long>(s.precopy_socket_bytes),
      static_cast<unsigned long long>(s.freeze_channel_bytes),
      static_cast<unsigned long long>(s.freeze_socket_bytes),
      static_cast<unsigned long long>(s.socket_count),
      static_cast<unsigned long long>(s.captured),
      static_cast<unsigned long long>(s.reinjected), s.success ? 1 : 0);
  return buf;
}

std::string describe(const std::optional<mig::MigrationStats>& s) {
  return s ? describe(*s) : "no report";
}

// The Fig. 5b/5c point (bench/fig5bc_freeze_sweep.cpp) at n=64.
TEST(SimIdentity, FreezePointN64) {
  const char* const pins[] = {
      "pid=1001 zone_1 iterative live=1 par=1 192.168.1.10->192.168.1.11 start=2000000000 freeze=2734948052 resume=2748065433 rounds=5 pre=13211042/0 frz=221184/218196 sockets=66 cap=0/0 ok=1",
      "pid=1001 zone_1 iterative live=1 par=1 192.168.1.10->192.168.1.11 start=2017000000 freeze=2751946020 resume=2765131761 rounds=5 pre=13211042/0 frz=228879/201267 sockets=66 cap=26/26 ok=1",
      "pid=1001 zone_1 collective live=1 par=1 192.168.1.10->192.168.1.11 start=2000000000 freeze=2734948052 resume=2738804720 rounds=5 pre=13211042/0 frz=220014/217936 sockets=66 cap=0/0 ok=1",
      "pid=1001 zone_1 collective live=1 par=1 192.168.1.10->192.168.1.11 start=2017000000 freeze=2751946020 resume=2755850028 rounds=5 pre=13211042/0 frz=226818/200116 sockets=66 cap=8/8 ok=1",
      "pid=1001 zone_1 incremental-collective live=1 par=1 192.168.1.10->192.168.1.11 start=2000000000 freeze=2738510045 resume=2739972925 rounds=5 pre=13531283/320216 frz=12890/10812 sockets=66 cap=0/0 ok=1",
      "pid=1001 zone_1 incremental-collective live=1 par=1 192.168.1.10->192.168.1.11 start=2017000000 freeze=2755125216 resume=2756790149 rounds=5 pre=13488112/277045 frz=35669/8967 sockets=66 cap=3/3 ok=1",
  };
  const char* const* pin = pins;
  for (const auto strategy : {SocketMigStrategy::iterative, SocketMigStrategy::collective,
                              SocketMigStrategy::incremental_collective}) {
    for (int rep = 0; rep < 2; ++rep) {
      proc::Node::reset_pid_counter();
      dve::TestbedConfig cfg;
      cfg.dve_nodes = 2;
      dve::Testbed bed(cfg);
      dve::ZoneServerConfig zs;
      zs.zone = 1;
      zs.active_updates = true;
      zs.per_client_cores = 0.0002;
      const dve::ZoneServerPoint world(
          bed, zs,
          {.count = 64,
           .ramp = SimTime::microseconds(500),
           .ramp_offset = SimTime::microseconds(137 * rep)});
      bed.run_for(SimTime::seconds(2) + SimTime::milliseconds(17 * rep));
      EXPECT_EQ(describe(dve::migrate_and_wait(bed, world.proc->pid(), 0, 1, {strategy},
                                               SimTime::seconds(8))),
                *pin++);
    }
  }
}

// The four `ablations smoke` rows (bench/ablations.cpp), in the bench's order.
TEST(SimIdentity, AblationsSmoke) {
  struct Row {
    bool live, adjust_timestamps, fix_dst_cache;
    const char* pin;
  };
  const Row rows[] = {
      {true, true, true,
       "pid=1001 zone_5 incremental-collective live=1 par=1 192.168.1.12->192.168.1.11 start=2000000000 freeze=2734519813 resume=2735236683 rounds=5 pre=13147688/47429 frz=1065/0 sockets=10 cap=0/0 ok=1 updates=480 db=30"},
      {false, true, true,
       "pid=1002 zone_5 incremental-collective live=0 par=1 192.168.1.12->192.168.1.11 start=2000000000 freeze=2000064912 resume=2112353853 rounds=0 pre=33/0 frz=12908347/37005 sockets=10 cap=24/24 ok=1 updates=480 db=30"},
      {true, false, true,
       "pid=1003 zone_5 incremental-collective live=1 par=1 192.168.1.12->192.168.1.11 start=2000000000 freeze=2734519813 resume=2735236683 rounds=5 pre=13147688/47429 frz=1065/0 sockets=10 cap=0/0 ok=1 updates=0 db=0"},
      {true, true, false,
       "pid=1004 zone_5 incremental-collective live=1 par=1 192.168.1.12->192.168.1.11 start=2000000000 freeze=2734519813 resume=2735236683 rounds=5 pre=13147688/47429 frz=1065/0 sockets=10 cap=0/0 ok=1 updates=480 db=0"},
  };
  proc::Node::reset_pid_counter();
  for (const Row& row : rows) {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 3;
    dve::Testbed bed(cfg);
    bed.node(1).migd.set_adjust_timestamps(row.adjust_timestamps);
    bed.db_transd().set_fix_dst_cache(row.fix_dst_cache);
    dve::ZoneServerConfig zs;
    zs.zone = 5;
    zs.active_updates = true;
    zs.db_update_period = SimTime::milliseconds(100);
    const dve::ZoneServerPoint world(bed, zs, {.count = 8}, 2);
    bed.run_for(SimTime::seconds(2));
    const auto stats = dve::migrate_and_wait(
        bed, world.proc->pid(), 2, 1,
        {SocketMigStrategy::incremental_collective, row.live}, SimTime::seconds(4));
    ASSERT_TRUE(stats.has_value());

    const std::uint64_t updates_at_move = world.updates_received();
    const auto moved = bed.node(1).node.find(world.proc->pid());
    ASSERT_NE(moved, nullptr);
    const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
    const std::uint64_t db_at_move = app->db_responses();
    bed.run_for(SimTime::seconds(3));
    EXPECT_EQ(describe(*stats) + " updates=" +
                  std::to_string(world.updates_received() - updates_at_move) +
                  " db=" + std::to_string(app->db_responses() - db_at_move),
              row.pin);
  }
}

// `parallel_pipeline smoke` (bench/parallel_pipeline.cpp): degrees 1 and 4.
TEST(SimIdentity, ParallelPipelineSmoke) {
  const std::pair<int, const char*> runs[] = {
      {1, "pid=1001 zone_1 incremental-collective live=1 par=1 192.168.1.10->192.168.1.11 start=400000000 freeze=568183212 resume=569159683 rounds=1 pre=17079380/6553 frz=50568/390 sockets=2 cap=0/0 ok=1"},
      {4, "pid=1002 zone_1 incremental-collective live=1 par=4 192.168.1.10->192.168.1.11 start=400000000 freeze=459481200 resume=460159879 rounds=1 pre=17079380/6553 frz=17736/390 sockets=2 cap=0/0 ok=1"},
  };
  proc::Node::reset_pid_counter();
  for (const auto& [degree, pin] : runs) {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    cfg.with_db = false;
    cfg.start_conductors = false;
    cfg.cost_model.initial_loop_timeout_ns = 20'000'000;
    cfg.cluster_link.rails = 4;
    dve::Testbed bed(cfg);
    dve::ZoneServerConfig zs;
    zs.zone = 1;
    zs.use_db = false;
    zs.active_updates = true;
    zs.heap_bytes = 16ull << 20;
    const dve::ZoneServerPoint world(bed, zs, {.count = 1, .active = 1});
    bed.run_for(SimTime::milliseconds(400));
    mig::MigrateOptions opts;
    opts.config.parallelism = degree;
    EXPECT_EQ(describe(dve::migrate_and_wait(bed, world.proc->pid(), 0, 1, opts,
                                             SimTime::seconds(30))),
              pin);
  }
}

// The Fig. 4 OpenArena run (bench/fig4_packet_delay.cpp).
TEST(SimIdentity, Fig4OpenArena) {
  proc::Node::reset_pid_counter();
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  const dve::OpenArenaPoint world(bed, 24);
  bed.run_for(SimTime::seconds(3));
  const auto stats = dve::migrate_and_wait(
      bed, world.proc->pid(), 0, 1, {SocketMigStrategy::incremental_collective},
      SimTime::seconds(3));
  ASSERT_TRUE(stats.has_value());
  std::size_t received = 0;
  SimDuration max_gap = SimTime::zero();
  for (const auto& c : world.clients) {
    received += c->received().size();
    max_gap = std::max(max_gap, c->max_gap(stats->t_freeze_begin - SimTime::milliseconds(125),
                                           stats->t_freeze_begin + SimTime::milliseconds(150)));
  }
  EXPECT_EQ(describe(*stats) + " received=" + std::to_string(received) +
                " missing=" + std::to_string(world.missing_snapshots()) +
                " max_gap=" + std::to_string(max_gap.ns),
            "pid=1001 openarena incremental-collective live=1 par=1 192.168.1.10->192.168.1.11 start=3000000000 freeze=4239774520 resume=4263787244 rounds=5 pre=71451685/804 frz=2709446/0 sockets=1 cap=24/24 ok=1 received=2856 missing=0 max_gap=63787244");
}

// A short Fig. 5d-f window, balancing on: `dvemig dve` at 2,000 clients for
// 150 s (tools/dvemig_cli.cpp).
TEST(SimIdentity, DveWindow) {
  proc::Node::reset_pid_counter();
  constexpr std::int64_t kSeconds = 150;
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 5;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.base_cores = 0.010;
  zs.per_client_cores = 0.0007 * 10000 / 2000;
  dve::PopulationConfig pc;
  pc.client_count = 2000;
  pc.move_start = SimTime::seconds(kSeconds / 15);
  pc.move_end = SimTime::seconds(kSeconds * 4 / 5);
  pc.move_step_prob = 0.08;
  dve::Dve world(bed, dve::ZoneGrid{}, zs, pc);
  std::vector<std::string> migrations;
  for (std::size_t n = 0; n < bed.node_count(); ++n) {
    bed.node(n).conductor.set_enabled(true);
    bed.node(n).conductor.set_on_migration(
        [&](const mig::MigrationStats& s) { migrations.push_back(describe(s)); });
  }
  bed.run_until(SimTime::seconds(kSeconds));

  std::string zones;
  for (const std::uint32_t c : world.population().clients_per_zone()) {
    zones += std::to_string(c) + " ";
  }
  EXPECT_EQ(zones,
            "30 32 30 21 25 21 20 20 20 20 30 39 36 25 23 23 20 23 20 20 24 26 34 18 18 17 18 18 11 14 14 15 15 17 16 15 11 19 14 17 15 18 14 14 15 16 14 15 15 15 14 17 17 13 12 16 13 13 13 13 14 19 14 19 14 16 17 18 13 17 14 16 17 16 19 18 20 33 25 27 20 20 20 20 22 21 27 37 34 29 20 20 20 24 22 21 22 36 28 30 ");
  std::string procs;
  for (std::size_t n = 0; n < bed.node_count(); ++n) {
    procs += std::to_string(bed.node(n).node.processes().size()) + " ";
  }
  EXPECT_EQ("handoffs=" + std::to_string(world.population().zone_handoffs()) +
                " resets=" + std::to_string(world.population().total_resets()) +
                " procs=" + procs,
            "handoffs=980 resets=0 procs=19 20 22 20 19 ");
  const std::vector<std::string> pinned = {
      "pid=1012 zone_11 incremental-collective live=1 par=1 192.168.1.10->192.168.1.12 start=53048063792 freeze=53783399511 resume=53784405145 rounds=5 pre=13212018/99466 frz=1481/0 sockets=33 cap=0/0 ok=1",
      "pid=1088 zone_87 incremental-collective live=1 par=1 192.168.1.14->192.168.1.12 start=64196063792 freeze=64932006169 resume=64933037286 rounds=5 pre=13279606/105494 frz=1517/0 sockets=35 cap=0/0 ok=1",
  };
  EXPECT_EQ(migrations, pinned);
}

}  // namespace
}  // namespace dvemig
