// Load-balanced DVE — a compact version of the Section VI-C/D experiment.
//
// Three nodes, 30 zones (3 rows of the grid per node), 900 clients. Clients
// drift toward the corners; the decentralized conductors notice the imbalance
// and live-migrate zone servers until node loads converge. Prints a per-node
// CPU/process-count timeline and each migration decision as it happens.
//
//   ./build/examples/load_balanced_dve [--log-level=debug] [--trace-out=trace.json]
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  cfg.policy.calm_down = SimTime::seconds(5);
  cfg.policy.imbalance_threshold = 0.08;
  dve::Testbed bed(cfg);
  // 30 zones: rows 0-1 -> node1, 2-3 -> node2, 4-5 -> node3.
  dve::ZoneServerConfig zs;
  zs.base_cores = 0.015;
  zs.per_client_cores = 0.004;
  dve::PopulationConfig pc;
  pc.client_count = 900;
  pc.middle_row_min = 2;
  pc.middle_row_max = 3;
  pc.moving_fraction = 0.6;
  pc.move_start = SimTime::seconds(20);
  pc.move_end = SimTime::seconds(160);
  pc.move_step_prob = 0.25;
  pc.corner_region = 2;
  dve::Dve world(bed, dve::ZoneGrid(6, 5), zs, pc);
  const dve::Population& pop = world.population();

  for (std::uint32_t n = 0; n < 3; ++n) {
    bed.node(n).conductor.set_enabled(true);
    bed.node(n).conductor.set_on_migration([&](const mig::MigrationStats& s) {
      std::printf("    >> migrated %-8s %s -> %s (freeze %.2f ms, %llu sockets)\n",
                  s.proc_name.c_str(), s.src_node.to_string().c_str(),
                  s.dst_node.to_string().c_str(), s.freeze_time().to_ms(),
                  static_cast<unsigned long long>(s.socket_count));
    });
  }

  std::printf("%-8s | %22s | %22s\n", "time", "CPU%% per node", "zone servers per node");
  for (int t = 20; t <= 240; t += 20) {
    bed.run_until(SimTime::seconds(t));
    std::printf("%6ds  |  %5.1f  %5.1f  %5.1f  |  %6zu %6zu %6zu\n", t,
                bed.node(0).node.cpu().node_utilization() * 100,
                bed.node(1).node.cpu().node_utilization() * 100,
                bed.node(2).node.cpu().node_utilization() * 100,
                bed.node(0).node.processes().size(),
                bed.node(1).node.processes().size(),
                bed.node(2).node.processes().size());
  }

  std::printf("client zone handoffs: %llu, connection resets: %llu (must be 0)\n",
              static_cast<unsigned long long>(pop.zone_handoffs()),
              static_cast<unsigned long long>(pop.total_resets()));
  return pop.total_resets() == 0 ? 0 : 1;
}
