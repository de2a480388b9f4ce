// Figures 5a/5d/5e/5f: the full DVE load-balancing simulation.
//
//  5a — initial 10x10 zone partitioning and movement directions (printed);
//  5e — per-node CPU over time, load balancing DISABLED: the corner nodes
//       (node1, node5) saturate >95 % while the middle nodes fall below ~65 %;
//  5f — per-node CPU over time, load balancing ENABLED: spread stays tight;
//  5d — zone-server process count per node over time with balancing enabled
//       (node1/node5 shed processes; node3/node4 absorb them).
//
// Setup mirrors Section VI-C: 5 DVE nodes x 20 zone servers, 10,000 clients
// uniformly distributed, 20 updates/s x 256 B workload characteristics, one
// MySQL session per zone server, clients from the middle rows drifting toward
// the up-left and down-right corners over ~15 minutes.
//
//   fig5def_dve_loadbalance [clients] [duration_s]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/cli.hpp"
#include "src/dve/scenario.hpp"
#include "src/obs/bench_report.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/runtime.hpp"

using namespace dvemig;

namespace {

constexpr std::uint32_t kNodes = 5;

struct Sample {
  double t_s{0};
  std::array<double, kNodes> cpu{};
  std::array<int, kNodes> procs{};
};

struct SimResult {
  std::vector<Sample> samples;
  std::uint64_t migrations{0};
  std::uint64_t handoffs{0};
  double worst_freeze_ms{0};
  std::uint64_t ticks{0};         // zone-server real-time loop iterations
  std::uint64_t socket_reads{0};  // client socket reads those ticks made
};

SimResult run_dve(bool lb_enabled, std::uint32_t clients, std::int64_t duration_s) {
  const obs::Counter& reads = obs::Registry::instance().counter("dve.socket_reads");
  const std::uint64_t reads_before = reads.value();
  dve::TestbedConfig cfg;
  cfg.dve_nodes = kNodes;
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.base_cores = 0.010;
  zs.per_client_cores = 0.0007;
  dve::PopulationConfig pc;
  pc.client_count = clients;
  pc.move_start = SimTime::seconds(60);
  pc.move_end = SimTime::seconds(duration_s * 4 / 5);
  pc.move_step_prob = 0.08;
  dve::Dve world(bed, dve::ZoneGrid{}, zs, pc);
  const dve::Population& pop = world.population();

  SimResult result;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    bed.node(n).conductor.set_enabled(lb_enabled);
    bed.node(n).conductor.set_on_migration([&](const mig::MigrationStats& s) {
      if (!s.success) return;
      result.migrations += 1;
      result.worst_freeze_ms =
          std::max(result.worst_freeze_ms, s.freeze_time().to_ms());
      std::fprintf(stderr,
                   "# t=%7.1fs migrated %-10s %s -> %s (%d rounds, freeze %.2f ms, "
                   "%llu sockets)\n",
                   s.t_resume.to_sec(), s.proc_name.c_str(),
                   s.src_node.to_string().c_str(), s.dst_node.to_string().c_str(),
                   s.precopy_rounds, s.freeze_time().to_ms(),
                   static_cast<unsigned long long>(s.socket_count));
    });
  }

  for (std::int64_t t = 10; t <= duration_s; t += 10) {
    bed.run_until(SimTime::seconds(t));
    Sample sample;
    sample.t_s = static_cast<double>(t);
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      sample.cpu[n] = bed.node(n).node.cpu().node_utilization() * 100.0;
      sample.procs[n] = static_cast<int>(bed.node(n).node.processes().size());
    }
    result.samples.push_back(sample);
  }
  result.handoffs = pop.zone_handoffs();
  result.socket_reads = reads.value() - reads_before;
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    for (const auto& [pid, p] : bed.node(n).node.processes()) {
      if (const auto* app = dynamic_cast<const dve::ZoneServerApp*>(p->app().get())) {
        result.ticks += app->ticks();
      }
    }
  }

  if (pop.total_resets() != 0) {
    std::fprintf(stderr, "# WARNING: %llu client connections were reset\n",
                 static_cast<unsigned long long>(pop.total_resets()));
  }
  return result;
}

void print_cpu_series(const char* title, const SimResult& result) {
  std::printf("\n# %s\n", title);
  std::printf("%-8s %8s %8s %8s %8s %8s\n", "time_s", "node1", "node2", "node3",
              "node4", "node5");
  for (const Sample& s : result.samples) {
    std::printf("%-8.0f %8.1f %8.1f %8.1f %8.1f %8.1f\n", s.t_s, s.cpu[0], s.cpu[1],
                s.cpu[2], s.cpu[3], s.cpu[4]);
  }
}

void print_proc_series(const char* title, const SimResult& result) {
  std::printf("\n# %s\n", title);
  std::printf("%-8s %8s %8s %8s %8s %8s\n", "time_s", "node1", "node2", "node3",
              "node4", "node5");
  for (const Sample& s : result.samples) {
    std::printf("%-8.0f %8d %8d %8d %8d %8d\n", s.t_s, s.procs[0], s.procs[1],
                s.procs[2], s.procs[3], s.procs[4]);
  }
}

void print_fig5a() {
  dve::ZoneGrid grid;
  std::printf("# Figure 5a — initial virtual-space partitioning (10x10 zones, "
              "2 rows per node) and client drift directions\n");
  for (std::uint32_t r = 0; r < grid.rows(); ++r) {
    std::printf("#  ");
    for (std::uint32_t c = 0; c < grid.cols(); ++c) {
      std::printf("n%u ", grid.initial_node_of(grid.zone_at(r, c), kNodes) + 1);
    }
    if (r == 1) std::printf("  <- up-left corner region: upper-middle clients drift here");
    if (r == 8) std::printf("  <- down-right corner region: lower-middle clients drift here");
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  obs::apply_common_flags(parse_common_flags(argc, argv));
  const std::uint32_t clients =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 10000;
  const std::int64_t duration = argc > 2 ? std::atoi(argv[2]) : 900;

  std::printf("# DVE load-balancing simulation: %u nodes, 100 zone servers, %u "
              "clients, %llds\n",
              kNodes, clients, static_cast<long long>(duration));
  print_fig5a();

  std::fprintf(stderr, "# running with load balancing DISABLED...\n");
  const SimResult off = run_dve(false, clients, duration);
  print_cpu_series(
      "Figure 5e — CPU consumption per node WITHOUT load balancing (%)", off);

  std::fprintf(stderr, "# running with load balancing ENABLED...\n");
  const SimResult on = run_dve(true, clients, duration);
  print_cpu_series(
      "Figure 5f — CPU consumption per node WITH load balancing (%)", on);
  print_proc_series(
      "Figure 5d — zone-server processes per node WITH load balancing", on);

  std::printf("\n# summary: %llu live migrations (worst freeze %.2f ms), %llu "
              "client zone handoffs\n",
              static_cast<unsigned long long>(on.migrations), on.worst_freeze_ms,
              static_cast<unsigned long long>(on.handoffs));
  std::printf("# paper: without LB node1/node5 exceed 95%% CPU while node3/node4 "
              "fall below ~65%%; with LB the spread stays much tighter\n");

  // CPU spread at the final sample: the figure's "tightness" as one scalar.
  auto final_spread = [](const SimResult& r) {
    if (r.samples.empty()) return 0.0;
    const auto& cpu = r.samples.back().cpu;
    const auto [lo, hi] = std::minmax_element(cpu.begin(), cpu.end());
    return *hi - *lo;
  };
  obs::BenchReport report("fig5def_dve_loadbalance");
  report.add_standard_metrics();
  report.result("clients", clients);
  report.result("duration_s", static_cast<double>(duration));
  report.result("migrations", static_cast<double>(on.migrations));
  report.result("worst_freeze_ms", on.worst_freeze_ms);
  report.result("zone_handoffs", static_cast<double>(on.handoffs));
  report.result("cpu_spread_final_lb_off_pct", final_spread(off));
  report.result("cpu_spread_final_lb_on_pct", final_spread(on));
  // Deterministic host-work counter: the passive tick reads only the client
  // sockets that received data, so this stays near the per-tick message rate.
  const std::uint64_t ticks = off.ticks + on.ticks;
  report.result("socket_reads_per_tick",
                ticks == 0 ? 0.0
                           : static_cast<double>(off.socket_reads + on.socket_reads) /
                                 static_cast<double>(ticks));
  report.write();
  return 0;
}
