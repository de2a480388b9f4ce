// Parallel pipelined migration data path: precopy wall-clock and freeze time
// vs. parallelism degree on a large-image zone server (PMigrate-style
// worker-pool sharding + multi-stream striped transfer over a 4-rail cluster
// link).
//
// Expected shape: precopy wall-clock drops roughly with min(degree, rails)
// while freeze time does not regress — the pipeline parallelises the bulk
// transfer, not the freeze-phase handshakes.
//
// Usage: parallel_pipeline [smoke]
//   smoke — CI-sized run: 16 MiB heap, degrees {1,4} only.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/bench_report.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

namespace {

struct DegreePoint {
  int degree{1};
  double precopy_ms{0};
  double freeze_ms{0};
  double total_ms{0};
  std::uint64_t precopy_bytes{0};
  std::uint64_t freeze_bytes{0};
};

DegreePoint run_degree(int degree, std::uint64_t heap_bytes,
                       std::int64_t initial_loop_timeout_ns) {
  mig::CostModel cm;
  cm.initial_loop_timeout_ns = initial_loop_timeout_ns;

  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.with_db = false;
  cfg.start_conductors = false;
  cfg.cost_model = cm;
  // Bonded cluster links: one TCP stream saturates a single 1 Gb/s rail, so
  // the parallel speedup needs independent rails to stripe across.
  cfg.cluster_link.rails = 4;
  dve::Testbed bed(cfg);

  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.use_db = false;
  zs.active_updates = true;
  zs.heap_bytes = heap_bytes;
  // One active client: it sends a 48-byte message every 50 ms and receives
  // the zone's updates.
  const dve::ZoneServerPoint world(bed, zs, {.count = 1, .active = 1});
  bed.run_for(SimTime::milliseconds(400));

  mig::MigrateOptions opts;
  opts.strategy = mig::SocketMigStrategy::incremental_collective;
  opts.live = true;
  opts.config.parallelism = degree;
  const auto migrated =
      dve::migrate_and_wait(bed, world.proc->pid(), 0, 1, opts, SimTime::seconds(30));
  if (!migrated || !migrated->success) {
    std::fprintf(stderr, "parallel_pipeline: migration failed at degree %d\n",
                 degree);
    std::abort();
  }
  const mig::MigrationStats& stats = *migrated;

  DegreePoint p;
  p.degree = degree;
  p.precopy_ms = (stats.t_freeze_begin - stats.t_start).to_ms();
  p.freeze_ms = stats.freeze_time().to_ms();
  p.total_ms = stats.total_time().to_ms();
  p.precopy_bytes = stats.precopy_channel_bytes;
  p.freeze_bytes = stats.freeze_channel_bytes;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;

  const std::uint64_t heap_bytes = smoke ? (16ull << 20) : (96ull << 20);
  const std::int64_t loop_timeout_ns = smoke ? 20'000'000 : 80'000'000;
  const std::vector<int> degrees =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  std::printf("# Parallel pipelined data path — precopy/freeze vs degree "
              "(%llu MiB heap, 4-rail GbE)\n",
              static_cast<unsigned long long>(heap_bytes >> 20));
  std::printf("%-8s %14s %12s %12s %16s\n", "degree", "precopy_ms", "freeze_ms",
              "total_ms", "precopy_bytes");

  obs::BenchReport report("parallel_pipeline");
  report.note("workload", smoke ? "smoke" : "full");
  report.result("heap_mib", static_cast<double>(heap_bytes >> 20));
  report.result("rails", 4);

  double precopy_deg1 = 0;
  double precopy_deg4 = 0;
  for (const int degree : degrees) {
    const DegreePoint p = run_degree(degree, heap_bytes, loop_timeout_ns);
    std::printf("%-8d %14.2f %12.2f %12.2f %16llu\n", p.degree, p.precopy_ms,
                p.freeze_ms, p.total_ms,
                static_cast<unsigned long long>(p.precopy_bytes));
    std::fflush(stdout);
    const std::string suffix = "_deg" + std::to_string(degree);
    report.result("precopy_ms" + suffix, p.precopy_ms);
    report.result("freeze_ms" + suffix, p.freeze_ms);
    report.result("total_ms" + suffix, p.total_ms);
    report.result("precopy_bytes" + suffix, static_cast<double>(p.precopy_bytes));
    report.result("freeze_bytes" + suffix, static_cast<double>(p.freeze_bytes));
    if (degree == 1) precopy_deg1 = p.precopy_ms;
    if (degree == 4) precopy_deg4 = p.precopy_ms;
  }
  if (precopy_deg1 > 0 && precopy_deg4 > 0) {
    report.result("precopy_speedup_deg4", precopy_deg1 / precopy_deg4);
    std::printf("#\n# precopy speedup at degree 4: %.2fx\n",
                precopy_deg1 / precopy_deg4);
  }
  report.add_standard_metrics();
  report.write();
  return 0;
}
