// OpenArena live migration — the Section VI-B scenario as a runnable example.
//
// A Quake III-style UDP game server with 24 connected clients is live-migrated
// between two nodes of the single-IP cluster while the game runs at 20 frames
// per second. The example prints the migration timeline and verifies that no
// snapshot was lost and every client kept playing.
//
//   ./build/examples/openarena_migration [--log-level=debug] [--trace-out=trace.json]
#include <cstdio>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);

  const dve::OpenArenaPoint world(bed, 24);
  std::printf("OpenArena server (pid %u) on %s, port %u\n", world.proc->pid().value,
              bed.node(0).node.name().c_str(), world.config.port);
  bed.run_for(SimTime::seconds(5));
  {
    const auto* app = static_cast<const dve::GameServerApp*>(world.proc->app().get());
    std::printf("t=5s   %zu players in game, %llu snapshots sent\n",
                app->client_count(),
                static_cast<unsigned long long>(app->snapshots_sent()));
  }

  std::printf("live-migrating to %s (incremental collective sockets)...\n",
              bed.node(1).node.name().c_str());
  const auto migrated = dve::migrate_and_wait(
      bed, world.proc->pid(), 0, 1, {mig::SocketMigStrategy::incremental_collective},
      SimTime::seconds(5));
  if (!migrated || !migrated->success) {
    std::printf("migration FAILED\n");
    return 1;
  }
  const mig::MigrationStats& stats = *migrated;

  std::printf("  precopy: %d rounds, %.1f MB over the cluster network\n",
              stats.precopy_rounds,
              static_cast<double>(stats.precopy_channel_bytes) / (1 << 20));
  std::printf("  freeze (player-visible downtime): %.2f ms\n",
              stats.freeze_time().to_ms());
  std::printf("  packets captured while the socket was down: %llu "
              "(all reinjected: %s)\n",
              static_cast<unsigned long long>(stats.captured),
              stats.captured == stats.reinjected ? "yes" : "NO");

  bed.run_for(SimTime::seconds(3));
  auto moved = bed.node(1).node.find(stats.pid);
  if (moved == nullptr) {
    std::printf("server not found on destination!\n");
    return 1;
  }
  const auto* app = static_cast<const dve::GameServerApp*>(moved->app().get());
  const std::size_t lost = world.missing_snapshots();
  std::printf("t=13s  %zu players still in game on %s, snapshots lost: %zu\n",
              app->client_count(), bed.node(1).node.name().c_str(), lost);
  const bool ok = app->client_count() == 24 && lost == 0;
  std::printf("%s\n", ok ? "transition was transparent to all clients"
                         : "TRANSPARENCY VIOLATED");
  return ok ? 0 : 1;
}
