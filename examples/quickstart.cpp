// Quickstart: the smallest end-to-end use of the library.
//
// Build a two-node single-IP cluster with a database server, run a zone server
// with a handful of game clients on node 1, then live-migrate it to node 2 while
// traffic flows. The client connections, the MySQL session and the update stream
// all survive; the process freeze time is printed.
//
//   ./build/examples/quickstart [--log-level=debug] [--trace-out=trace.json]
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

  // A zone server on node 1, updating its clients 20 times per second, and
  // eight clients that connect to the zone's port on the shared public IP and
  // chat with the server at 20 Hz.
  dve::ZoneServerConfig zs;
  zs.zone = 7;
  zs.active_updates = true;
  const dve::ZoneServerPoint world(bed, zs, {.count = 8, .message_bytes = 64});
  const Pid pid = world.proc->pid();

  bed.run_for(SimTime::seconds(3));
  const auto* app =
      static_cast<const dve::ZoneServerApp*>(world.proc->app().get());
  std::printf("t=3s   zone server on %s: %zu clients, %llu updates sent, "
              "%llu DB responses\n",
              bed.node(0).node.name().c_str(), app->client_count(),
              static_cast<unsigned long long>(app->updates_sent()),
              static_cast<unsigned long long>(app->db_responses()));

  // Live-migrate the zone server to node 2 (incremental collective sockets).
  const auto migrated = dve::migrate_and_wait(
      bed, pid, 0, 1, {mig::SocketMigStrategy::incremental_collective},
      SimTime::seconds(3));
  if (!migrated || !migrated->success) {
    std::printf("migration FAILED\n");
    return 1;
  }
  const mig::MigrationStats& stats = *migrated;

  auto moved = bed.node(1).node.find(pid);
  const auto* app2 =
      moved ? static_cast<const dve::ZoneServerApp*>(moved->app().get()) : nullptr;
  std::printf("migrated pid %u -> %s in %d precopy rounds\n", pid.value,
              bed.node(1).node.name().c_str(), stats.precopy_rounds);
  std::printf("  process freeze time : %.2f ms\n", stats.freeze_time().to_ms());
  std::printf("  freeze-phase bytes  : %llu (socket state: %llu)\n",
              static_cast<unsigned long long>(stats.freeze_channel_bytes),
              static_cast<unsigned long long>(stats.freeze_socket_bytes));
  std::printf("  captured/reinjected : %llu/%llu packets\n",
              static_cast<unsigned long long>(stats.captured),
              static_cast<unsigned long long>(stats.reinjected));
  if (app2 != nullptr) {
    std::printf("t=6s   zone server on %s: %zu clients, %llu updates sent, "
                "%llu DB responses\n",
                bed.node(1).node.name().c_str(), app2->client_count(),
                static_cast<unsigned long long>(app2->updates_sent()),
                static_cast<unsigned long long>(app2->db_responses()));
  }

  const std::uint64_t updates = world.updates_received();
  const std::uint64_t resets = world.resets_seen();
  std::printf("clients: %llu updates received, %llu connection resets\n",
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(resets));
  return resets == 0 && app2 != nullptr && app2->client_count() == 8 ? 0 : 1;
}
