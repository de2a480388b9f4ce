// Evacuation / maintenance use-case — the fault-tolerance and power-management
// direction sketched in the paper's future work (Section VIII).
//
// A node must be taken down for maintenance. Every process it hosts — three
// zone servers with clients and live MySQL sessions — is live-migrated away
// one by one; the node ends up empty and can be powered off, while every
// client connection and DB session keeps running elsewhere.
//
//   ./build/examples/db_failover [--log-level=debug] [--trace-out=trace.json]
#include <cstdio>
#include <vector>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  dve::Testbed bed(cfg);

  // Three zone servers on the node to be evacuated (node 1), six clients each.
  std::vector<dve::ZoneServerPoint> zones;
  zones.reserve(3);
  for (dve::ZoneId z = 1; z <= 3; ++z) {
    dve::ZoneServerConfig zs;
    zs.zone = z;
    zs.active_updates = true;
    zs.db_update_period = SimTime::milliseconds(200);
    zones.emplace_back(bed, zs, dve::ZoneClients{.count = 6});
  }
  bed.run_for(SimTime::seconds(2));
  std::printf("node1 hosts %zu processes; beginning evacuation\n",
              bed.node(0).node.processes().size());

  // Drain node1: round-robin the processes to nodes 2 and 3.
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const Pid pid = zones[i].proc->pid();
    const std::size_t target = 1 + i % 2;
    const auto stats = dve::migrate_and_wait(
        bed, pid, 0, target, {mig::SocketMigStrategy::incremental_collective},
        SimTime::seconds(4));
    if (!stats || !stats->success) {
      std::printf("evacuation of pid %u FAILED\n", pid.value);
      return 1;
    }
    std::printf("  pid %u -> %s (freeze %.2f ms)\n", pid.value,
                bed.node(target).node.name().c_str(), stats->freeze_time().to_ms());
  }

  std::printf("node1 now hosts %zu processes (safe to power off)\n",
              bed.node(0).node.processes().size());

  bed.run_for(SimTime::seconds(3));
  std::uint64_t resets = 0;
  std::uint64_t updates = 0;
  for (const auto& zone : zones) {
    resets += zone.resets_seen();
    updates += zone.updates_received();
  }
  std::printf("clients: %llu updates received, %llu resets; DB sessions alive: %zu\n",
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(resets), bed.db()->active_sessions());
  const bool ok = resets == 0 && bed.node(0).node.processes().empty() &&
                  bed.db()->active_sessions() == 3;
  std::printf("%s\n", ok ? "evacuation completed transparently" : "EVACUATION BROKE CLIENTS");
  return ok ? 0 : 1;
}
