// dvemig-mc — deterministic model checker for the migd migration protocol.
//
// Drives the simulator's migration scenarios (src/mc) through exhaustive
// small-scope schedule/fault exploration and judges every terminal state with
// the dvemig-verify invariants plus end-to-end migration properties.
//
//   dvemig-mc --preset handshake                 # DFS until the scope is exhausted
//   dvemig-mc --preset crash --mode random       # seeded random walks
//   dvemig-mc --preset freeze --mutation skip_capture_dedup
//   dvemig-mc --replay repro.mcs                 # re-run a minimized trace
//
// Exit status: 0 = no violation, 1 = violation found, 2 = usage/setup error.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/mc/explorer.hpp"

namespace {

using dvemig::mc::ExploreConfig;
using dvemig::mc::ExploreResult;
using dvemig::mc::RunResult;
using dvemig::mc::Script;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--preset handshake|precopy|stripe|freeze|crash]\n"
               "          [--mode dfs|random] [--max-states N] [--max-depth N]\n"
               "          [--seed N] [--runs N] [--mutation NAME]\n"
               "          [--no-stop-on-violation] [--repro-out FILE]\n"
               "       %s --replay FILE\n",
               argv0, argv0);
  return 2;
}

void print_run(const RunResult& r) {
  std::printf("  done=%d success=%d captured=%llu reinjected=%llu faults=%zu "
              "decisions=%zu events=%llu\n",
              r.migration_done ? 1 : 0, r.success ? 1 : 0,
              static_cast<unsigned long long>(r.captured),
              static_cast<unsigned long long>(r.reinjected), r.faults_injected,
              r.trace.size(), static_cast<unsigned long long>(r.events));
  for (const std::string& v : r.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }
}

void print_trace(const RunResult& r) {
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const dvemig::mc::Decision& d = r.trace[i];
    if (d.options <= 1) continue;  // forced moves carry no information
    std::printf("  #%-3zu %-24s chose %u of %u  state=%016llx\n", i,
                d.site.c_str(), d.chosen, d.options,
                static_cast<unsigned long long>(d.state));
  }
}

int replay_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dvemig-mc: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const std::optional<Script> script = Script::parse(buf.str(), &error);
  if (!script) {
    std::fprintf(stderr, "dvemig-mc: bad script %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  if (!dvemig::mc::preset_known(script->preset) ||
      !dvemig::mc::mutation_from_name(script->mutation)) {
    std::fprintf(stderr, "dvemig-mc: script %s names an unknown preset or "
                 "mutation\n", path.c_str());
    return 2;
  }
  std::printf("replaying %s (preset %s, %zu prescribed choices)\n",
              path.c_str(), script->preset.c_str(), script->choices.size());
  const RunResult r = dvemig::mc::replay_script(*script);
  print_run(r);
  print_trace(r);
  std::printf(r.clean() ? "replay: clean\n" : "replay: VIOLATION\n");
  return r.clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ExploreConfig cfg;
  std::string mode = "dfs";
  std::string mutation = "none";
  std::string repro_out;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    try {
      if (arg == "--preset") {
        if (auto v = value()) cfg.preset = *v; else return usage(argv[0]);
      } else if (arg == "--mode") {
        if (auto v = value()) mode = *v; else return usage(argv[0]);
      } else if (arg == "--max-states") {
        if (auto v = value()) cfg.max_states = std::stoul(*v);
        else return usage(argv[0]);
      } else if (arg == "--max-depth") {
        if (auto v = value()) cfg.max_depth = std::stoul(*v);
        else return usage(argv[0]);
      } else if (arg == "--seed") {
        if (auto v = value()) cfg.seed = std::stoull(*v);
        else return usage(argv[0]);
      } else if (arg == "--runs") {
        if (auto v = value()) cfg.random_runs = std::stoul(*v);
        else return usage(argv[0]);
      } else if (arg == "--mutation") {
        if (auto v = value()) mutation = *v; else return usage(argv[0]);
      } else if (arg == "--no-stop-on-violation") {
        cfg.stop_on_violation = false;
      } else if (arg == "--repro-out") {
        if (auto v = value()) repro_out = *v; else return usage(argv[0]);
      } else if (arg == "--replay") {
        if (auto v = value()) replay_path = *v; else return usage(argv[0]);
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "dvemig-mc: bad number in %s\n", arg.c_str());
      return 2;
    }
  }

  if (!replay_path.empty()) return replay_file(replay_path);

  if (!dvemig::mc::preset_known(cfg.preset)) {
    std::fprintf(stderr, "dvemig-mc: unknown preset '%s'\n",
                 cfg.preset.c_str());
    return 2;
  }
  const auto mut = dvemig::mc::mutation_from_name(mutation);
  if (!mut) {
    std::fprintf(stderr, "dvemig-mc: unknown mutation '%s'\n",
                 mutation.c_str());
    return 2;
  }
  cfg.mutation = *mut;
  if (mode != "dfs" && mode != "random") return usage(argv[0]);

  std::printf("dvemig-mc: preset=%s mode=%s mutation=%s max-states=%zu "
              "max-depth=%zu\n",
              cfg.preset.c_str(), mode.c_str(), mutation.c_str(),
              cfg.max_states, cfg.max_depth);

  dvemig::mc::Explorer explorer(cfg);
  const ExploreResult res =
      mode == "dfs" ? explorer.dfs() : explorer.random_walk();

  std::printf("explored %zu run(s), %zu distinct protocol state(s), "
              "longest trace %zu decision(s)\n",
              res.runs, res.distinct_states, res.max_trace_len);
  std::printf("pruned: %zu by visited-state, %zu by depth bound\n",
              res.pruned_visited, res.pruned_depth);
  if (mode == "dfs") {
    std::printf(res.exhausted
                    ? "scope exhausted: every unpruned interleaving explored\n"
                    : "scope NOT exhausted (hit --max-states or stopped on a "
                      "violation)\n");
  }

  if (!res.has_violation) {
    std::printf("result: no violations\n");
    return 0;
  }

  std::printf("result: %zu violating run(s); first, minimized to %zu "
              "prescribed choice(s):\n",
              res.violating_runs, res.repro.choices.size());
  print_run(res.first_violation);
  print_trace(res.first_violation);
  std::printf("repro script:\n%s", res.repro.to_text().c_str());
  if (!repro_out.empty()) {
    std::ofstream out(repro_out);
    out << res.repro.to_text();
    std::printf("written to %s\n", repro_out.c_str());
  }
  return 1;
}
