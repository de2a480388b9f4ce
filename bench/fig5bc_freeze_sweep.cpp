// Figures 5b and 5c: worst-case process freeze time and worst-case socket
// bytes transferred during the freeze phase vs. number of TCP connections, for
// iterative, collective and incremental collective socket migration.
//
// Each point live-migrates a zone server holding N active client TCP
// connections (plus one MySQL session) once per repetition; both figures are
// read off the same runs.
//
// Paper reference points (5-node Opteron cluster, GbE):
//   5b — iterative grows steeply and roughly linearly with the transferred
//        bytes; collective flattens it; incremental collective keeps >1000
//        connections under 40 ms;
//   5c — iterative and collective ship the full per-connection kernel state
//        (~3.5 MB at 1024 connections — iterative == collective by
//        construction); incremental collective ships only the changes,
//        roughly an order of magnitude less.
//
// Usage: fig5bc_freeze_sweep [reps] [max_connections]
// (max_connections truncates the sweep — the CI smoke run uses 64.)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/bench_report.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

namespace {

struct SweepPoint {
  double worst_freeze_ms{0};
  std::uint64_t worst_freeze_socket_bytes{0};
};

/// One migration per repetition on a fresh testbed; `rep` shifts the traffic
/// phase so "worst case over repetitions" is meaningful.
SweepPoint run_sweep_point(std::size_t connections, mig::SocketMigStrategy strategy,
                           int reps) {
  SweepPoint point;
  for (int rep = 0; rep < reps; ++rep) {
    dve::TestbedConfig cfg;
    cfg.dve_nodes = 2;
    dve::Testbed bed(cfg);
    dve::ZoneServerConfig zs;
    zs.zone = 1;
    zs.active_updates = true;
    zs.per_client_cores = 0.0002;  // keep the node itself unsaturated at N=1024
    const dve::ZoneServerPoint world(
        bed, zs,
        {.count = connections,
         .ramp = SimTime::microseconds(500),
         .ramp_offset = SimTime::microseconds(137 * rep)});
    bed.run_for(SimTime::seconds(2) + SimTime::milliseconds(17 * rep));

    const auto stats = dve::migrate_and_wait(bed, world.proc->pid(), 0, 1, {strategy},
                                             SimTime::seconds(8));
    if (!stats || !stats->success) {
      std::fprintf(stderr, "freeze sweep: migration failed (n=%zu, %s)\n", connections,
                   mig::strategy_name(strategy));
      std::abort();
    }
    point.worst_freeze_ms = std::max(point.worst_freeze_ms, stats->freeze_time().to_ms());
    point.worst_freeze_socket_bytes =
        std::max(point.worst_freeze_socket_bytes, stats->freeze_socket_bytes);
  }
  return point;
}

std::string human(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof buf, "%.2fMB", static_cast<double>(bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof buf, "%.1fkB", static_cast<double>(bytes) / 1024);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  const int reps = argc > 1 ? std::atoi(argv[1]) : 2;
  const std::size_t max_n =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : SIZE_MAX;

  std::printf("# Figure 5b — worst-case process freeze time (ms) vs TCP connections\n");
  std::printf("# each process also maintains one MySQL session; %d repetition(s), "
              "worst case reported\n",
              reps);
  std::printf("%-12s %14s %14s %24s\n", "connections", "iterative", "collective",
              "incremental-collective");

  struct Row {
    std::size_t n;
    SweepPoint it, co, inc;
  };
  std::vector<Row> rows;
  obs::BenchReport time_report("fig5b_freeze_time");
  time_report.result("reps", reps);
  constexpr std::size_t kCounts[] = {16, 32, 64, 128, 256, 512, 1024};
  for (const std::size_t n : kCounts) {
    if (n > max_n) continue;
    const Row row{n, run_sweep_point(n, mig::SocketMigStrategy::iterative, reps),
                  run_sweep_point(n, mig::SocketMigStrategy::collective, reps),
                  run_sweep_point(n, mig::SocketMigStrategy::incremental_collective, reps)};
    std::printf("%-12zu %14.2f %14.2f %24.2f\n", n, row.it.worst_freeze_ms,
                row.co.worst_freeze_ms, row.inc.worst_freeze_ms);
    std::fflush(stdout);
    const std::string suffix = "_n" + std::to_string(n);
    time_report.result("freeze_ms_iterative" + suffix, row.it.worst_freeze_ms);
    time_report.result("freeze_ms_collective" + suffix, row.co.worst_freeze_ms);
    time_report.result("freeze_ms_incremental" + suffix, row.inc.worst_freeze_ms);
    rows.push_back(row);
  }
  time_report.add_standard_metrics();
  time_report.write();
  std::printf("#\n# paper: incremental collective stays below 40 ms even beyond "
              "1000 connections\n");

  std::printf("# Figure 5c — socket bytes transferred during the freeze phase\n");
  std::printf("# (iterative/collective = full dumps; incremental = deltas only)\n");
  std::printf("%-12s %14s %14s %24s %12s\n", "connections", "iterative",
              "collective", "incremental-collective", "incr/full");
  obs::BenchReport bytes_report("fig5c_freeze_bytes");
  bytes_report.result("reps", reps);
  for (const Row& row : rows) {
    const double ratio =
        static_cast<double>(row.inc.worst_freeze_socket_bytes) /
        static_cast<double>(std::max<std::uint64_t>(1, row.co.worst_freeze_socket_bytes));
    std::printf("%-12zu %14s %14s %24s %11.1f%%\n", row.n,
                human(row.it.worst_freeze_socket_bytes).c_str(),
                human(row.co.worst_freeze_socket_bytes).c_str(),
                human(row.inc.worst_freeze_socket_bytes).c_str(), 100.0 * ratio);
    const std::string suffix = "_n" + std::to_string(row.n);
    bytes_report.result("socket_bytes_iterative" + suffix,
                        static_cast<double>(row.it.worst_freeze_socket_bytes));
    bytes_report.result("socket_bytes_collective" + suffix,
                        static_cast<double>(row.co.worst_freeze_socket_bytes));
    bytes_report.result("socket_bytes_incremental" + suffix,
                        static_cast<double>(row.inc.worst_freeze_socket_bytes));
    bytes_report.result("incr_over_full_ratio" + suffix, ratio);
  }
  bytes_report.add_standard_metrics();
  bytes_report.write();
  std::printf("#\n# paper: ~3.5MB at 1024 connections for iterative/collective; "
              "incremental is ~an order of magnitude smaller\n");
  return 0;
}
