// Figure 4: packet delay due to migration — OpenArena server, 24 clients.
//
// The server updates its clients every 50 ms (20 snapshots/s). We live-migrate
// it mid-game, capture all server->client packets (the tcpdump equivalent is the
// clients' arrival records merged on a global timeline) and print packet number
// vs. time around the migration, exactly like the paper's scatter plot.
//
// Paper reference points: ~20 ms process downtime, ~25 ms delay of the first
// post-migration packet group relative to the expected 50 ms cadence, zero loss.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/bench_report.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  const dve::OpenArenaPoint world(bed, 24);
  bed.run_for(SimTime::seconds(3));

  const auto migrated = dve::migrate_and_wait(
      bed, world.proc->pid(), 0, 1, {mig::SocketMigStrategy::incremental_collective},
      SimTime::seconds(3));
  if (!migrated || !migrated->success) {
    std::fprintf(stderr, "fig4: migration failed\n");
    return 1;
  }
  const mig::MigrationStats& stats = *migrated;

  // Merge all clients' packet arrivals into one ordered timeline.
  std::vector<dve::PacketRecord> all;
  for (const auto& c : world.clients) {
    all.insert(all.end(), c->received().begin(), c->received().end());
  }
  const std::size_t missing = world.missing_snapshots();
  std::sort(all.begin(), all.end(),
            [](const dve::PacketRecord& a, const dve::PacketRecord& b) {
              return a.t < b.t;
            });

  // Window: ~125 ms before the freeze to ~150 ms after, relative time axis.
  const SimTime t0 = stats.t_freeze_begin - SimTime::milliseconds(125);
  const SimTime t1 = stats.t_freeze_begin + SimTime::milliseconds(150);

  std::printf("# Figure 4 — packet delay due to migration (OpenArena server, 24 "
              "clients)\n");
  std::printf("# time_ms packet_number node (time relative to window start; "
              "migration freeze begins at 125.0 ms)\n");
  int index = 0;
  SimTime prev{};
  double max_gap_ms = 0;
  bool have_prev = false;
  for (const auto& rec : all) {
    if (rec.t < t0 || rec.t > t1) continue;
    const bool after = rec.t >= stats.t_resume;
    if (have_prev && rec.t - prev > SimTime::milliseconds(1)) {
      const double gap = (rec.t - prev).to_ms();
      max_gap_ms = std::max(max_gap_ms, gap);
    }
    prev = rec.t;
    have_prev = true;
    std::printf("%8.2f %5d %s\n", (rec.t - t0).to_ms(), index++,
                after ? "destination" : "source");
  }

  const double cadence_ms = 50.0;
  std::printf("#\n# process freeze time (downtime) : %.2f ms (paper: ~20 ms)\n",
              stats.freeze_time().to_ms());
  std::printf("# max inter-burst gap            : %.2f ms (regular cadence: %.0f "
              "ms)\n",
              max_gap_ms, cadence_ms);
  std::printf("# delay vs expected transmission : ~%.2f ms (paper: ~25 ms)\n",
              std::max(0.0, max_gap_ms - cadence_ms));
  std::printf("# captured/reinjected during move: %llu/%llu packets\n",
              static_cast<unsigned long long>(stats.captured),
              static_cast<unsigned long long>(stats.reinjected));
  std::printf("# snapshots lost                 : %zu (must be 0)\n", missing);

  obs::BenchReport report("fig4_packet_delay");
  report.add_standard_metrics();
  report.result("downtime_ms", stats.freeze_time().to_ms());
  report.result("max_gap_ms", max_gap_ms);
  report.result("delay_vs_cadence_ms", std::max(0.0, max_gap_ms - cadence_ms));
  report.result("captured", static_cast<double>(stats.captured));
  report.result("reinjected", static_cast<double>(stats.reinjected));
  report.result("snapshots_lost", static_cast<double>(missing));
  report.note("strategy", mig::strategy_name(stats.strategy));
  report.write();
  return missing == 0 ? 0 : 1;
}
