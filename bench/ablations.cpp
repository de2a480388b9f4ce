// Ablation benchmarks for the design choices DESIGN.md calls out.
//
// Each row disables one mechanism of the migration pipeline and reports what
// breaks, quantitatively:
//
//   precopy (vs stop-and-copy)  — downtime explodes with the address-space size;
//   packet-loss prevention      — (conceptually) client packets during the freeze
//                                 are dropped instead of captured; measured via
//                                 captured counts and client-visible loss;
//   TCP timestamp adjustment    — PAWS at the peers discards everything the
//                                 migrated server sends: update stream stalls;
//   dst-cache replacement       — the DB session's responses are steered to the
//                                 old node: session stalls.
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/bench_report.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

namespace {

struct RunResult {
  mig::MigrationStats stats;
  std::uint64_t updates_after{0};   // client updates delivered in 3 s post-move
  std::uint64_t db_after{0};        // DB responses in 3 s post-move
};

RunResult run_case(bool live, bool adjust_timestamps, bool fix_dst_cache,
                   std::uint64_t heap_bytes) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  dve::Testbed bed(cfg);
  bed.node(1).migd.set_adjust_timestamps(adjust_timestamps);
  bed.db_transd().set_fix_dst_cache(fix_dst_cache);

  dve::ZoneServerConfig zs;
  zs.zone = 5;
  zs.active_updates = true;
  zs.heap_bytes = heap_bytes;
  zs.db_update_period = SimTime::milliseconds(100);
  // Migrate node3 -> node2: the destination's jiffies lag the source's, the
  // worst case for unadjusted timestamps.
  const dve::ZoneServerPoint world(bed, zs, {.count = 8}, 2);
  bed.run_for(SimTime::seconds(2));

  RunResult result;
  const auto stats = dve::migrate_and_wait(
      bed, world.proc->pid(), 2, 1,
      {mig::SocketMigStrategy::incremental_collective, live}, SimTime::seconds(4));
  if (!stats || !stats->success) {
    std::fprintf(stderr, "ablation run failed\n");
    std::abort();
  }
  result.stats = *stats;

  const std::uint64_t updates_at_move = world.updates_received();
  auto moved = bed.node(1).node.find(world.proc->pid());
  const auto* app = static_cast<const dve::ZoneServerApp*>(moved->app().get());
  const std::uint64_t db_at_move = app->db_responses();

  bed.run_for(SimTime::seconds(3));
  result.updates_after = world.updates_received() - updates_at_move;
  result.db_after = app->db_responses() - db_at_move;
  return result;
}

void print_row(const char* name, const RunResult& r) {
  std::printf("%-28s %14.2f %16llu %16llu %12llu\n", name,
              r.stats.freeze_time().to_ms(),
              static_cast<unsigned long long>(r.updates_after),
              static_cast<unsigned long long>(r.db_after),
              static_cast<unsigned long long>(r.stats.captured));
}

}  // namespace

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  // "smoke" skips the heap sweep — the CI smoke job runs only the four rows.
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  constexpr std::uint64_t kHeap = 12ull << 20;

  std::printf("# Ablations — zone server, 8 active clients + MySQL session, "
              "12 MiB heap\n");
  std::printf("# healthy post-migration: ~480 client updates and ~30 DB responses "
              "in 3 s\n");
  std::printf("%-28s %14s %16s %16s %12s\n", "configuration", "downtime_ms",
              "updates_in_3s", "db_resp_in_3s", "captured");

  obs::BenchReport report("ablations");
  auto record = [&report](const char* key, const RunResult& r) {
    const std::string k = key;
    report.result(k + "_downtime_ms", r.stats.freeze_time().to_ms());
    report.result(k + "_updates_in_3s", static_cast<double>(r.updates_after));
    report.result(k + "_db_resp_in_3s", static_cast<double>(r.db_after));
    report.result(k + "_captured", static_cast<double>(r.stats.captured));
  };

  const RunResult full = run_case(true, true, true, kHeap);
  print_row("full mechanism", full);
  record("full", full);
  const RunResult stopcopy = run_case(false, true, true, kHeap);
  print_row("no precopy (stop-and-copy)", stopcopy);
  record("no_precopy", stopcopy);
  const RunResult no_ts = run_case(true, false, true, kHeap);
  print_row("no timestamp adjustment", no_ts);
  record("no_ts_adjust", no_ts);
  const RunResult no_cache = run_case(true, true, false, kHeap);
  print_row("no dst-cache replacement", no_cache);
  record("no_dst_cache", no_cache);

  if (!smoke) {
    std::printf("\n# stop-and-copy downtime scales with the address space "
                "(live migration's does not):\n");
    std::printf("%-12s %18s %18s\n", "heap_MiB", "live_downtime_ms",
                "stopcopy_downtime_ms");
    for (const std::uint64_t mib : {4ull, 12ull, 32ull, 64ull}) {
      const RunResult live = run_case(true, true, true, mib << 20);
      const RunResult cold = run_case(false, true, true, mib << 20);
      std::printf("%-12llu %18.2f %18.2f\n", static_cast<unsigned long long>(mib),
                  live.stats.freeze_time().to_ms(), cold.stats.freeze_time().to_ms());
      const std::string suffix = "_heap" + std::to_string(mib) + "MiB";
      report.result("live_downtime_ms" + suffix, live.stats.freeze_time().to_ms());
      report.result("stopcopy_downtime_ms" + suffix,
                    cold.stats.freeze_time().to_ms());
    }
  }
  report.add_standard_metrics();
  report.write();
  return 0;
}
