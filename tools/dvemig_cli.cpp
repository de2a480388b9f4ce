// dvemig — command-line scenario runner for the library.
//
//   dvemig migrate   [--clients N] [--strategy S] [--heap MiB] [--cold]
//                    [--trace] [--no-ts-adjust] [--no-dst-fix]
//   dvemig dve       [--clients N] [--seconds S] [--lb on|off]
//                    [--initiation sender|receiver|symmetric]
//   dvemig openarena [--clients N] [--seconds S]
//   dvemig help
//
// Every scenario is deterministic: the same flags reproduce the same output.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dve/game_server.hpp"
#include "src/dve/population.hpp"
#include "src/dve/testbed.hpp"
#include "src/dve/zone_server.hpp"
#include "src/stack/tracer.hpp"

using namespace dvemig;

namespace {

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  long num(const std::string& key, long fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::atol(it->second.c_str());
  }
};

Args parse(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(2);
    }
    key = key.substr(2);
    // Flags may be bare (--trace) or valued (--clients 24).
    const bool valued = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    args.values[key] = valued ? argv[++i] : "1";
  }
  return args;
}

mig::SocketMigStrategy parse_strategy(const std::string& name) {
  if (name == "iterative") return mig::SocketMigStrategy::iterative;
  if (name == "collective") return mig::SocketMigStrategy::collective;
  if (name == "incremental" || name == "incremental-collective") {
    return mig::SocketMigStrategy::incremental_collective;
  }
  std::fprintf(stderr, "unknown strategy: %s\n", name.c_str());
  std::exit(2);
}

lb::Initiation parse_initiation(const std::string& name) {
  if (name == "sender") return lb::Initiation::sender;
  if (name == "receiver") return lb::Initiation::receiver;
  if (name == "symmetric") return lb::Initiation::symmetric;
  std::fprintf(stderr, "unknown initiation mode: %s\n", name.c_str());
  std::exit(2);
}

int cmd_migrate(const Args& args) {
  const long nclients = args.num("clients", 24);
  const auto strategy = parse_strategy(args.get("strategy", "incremental"));
  const bool live = !args.has("cold");

  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  if (args.has("no-ts-adjust")) bed.node(1).migd.set_adjust_timestamps(false);
  if (args.has("no-dst-fix")) bed.db_transd().set_fix_dst_cache(false);

  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.active_updates = true;
  zs.heap_bytes = static_cast<std::uint64_t>(args.num("heap", 12)) << 20;
  zs.db_addr = bed.db_node()->local_addr();
  zs.per_client_cores = 0.0002;
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);

  std::vector<std::unique_ptr<dve::TcpDveClient>> clients;
  for (long i = 0; i < nclients; ++i) {
    auto c = std::make_unique<dve::TcpDveClient>(bed.make_client_host(),
                                                 bed.public_ip());
    c->set_active(SimTime::milliseconds(50), 48);
    c->connect_to_zone(zs.zone);
    clients.push_back(std::move(c));
  }
  bed.run_for(SimTime::seconds(2));

  std::unique_ptr<stack::PacketTracer> tracer;
  if (args.has("trace")) {
    tracer = std::make_unique<stack::PacketTracer>(bed.node(1).node.stack(), 4000);
    tracer->set_filter([&](const net::Packet& p) {
      return p.dport() == dve::zone_port(zs.zone) ||
             p.sport() == dve::zone_port(zs.zone);
    });
  }

  mig::MigrationStats stats;
  bool done = false;
  bed.node(0).migd.migrate(proc->pid(), bed.node(1).node.local_addr(),
                           mig::MigrateOptions{strategy, live},
                           [&](const mig::MigrationStats& s) {
                             stats = s;
                             done = true;
                           });
  bed.run_for(SimTime::seconds(8));
  if (!done || !stats.success) {
    std::printf("migration FAILED\n");
    return 1;
  }

  std::printf("migrated %s (%ld clients, %s, %s)\n", stats.proc_name.c_str(),
              nclients, mig::strategy_name(strategy),
              live ? "live precopy" : "stop-and-copy");
  std::printf("  precopy rounds      : %d (%.1f MB on the wire)\n",
              stats.precopy_rounds,
              static_cast<double>(stats.precopy_channel_bytes) / (1 << 20));
  std::printf("  freeze time         : %.2f ms\n", stats.freeze_time().to_ms());
  std::printf("  freeze socket bytes : %llu\n",
              static_cast<unsigned long long>(stats.freeze_socket_bytes));
  std::printf("  captured/reinjected : %llu/%llu\n",
              static_cast<unsigned long long>(stats.captured),
              static_cast<unsigned long long>(stats.reinjected));

  std::uint64_t resets = 0;
  for (const auto& c : clients) resets += c->resets_seen();
  std::printf("  client resets       : %llu\n",
              static_cast<unsigned long long>(resets));

  bed.run_for(SimTime::seconds(2));
  std::uint64_t recent = 0;
  for (const auto& c : clients) recent += c->updates_received();
  std::printf("  post-move updates   : %llu delivered in total\n",
              static_cast<unsigned long long>(recent));

  if (tracer) {
    std::printf("\n--- packet trace at the destination (last 30) ---\n");
    const auto& recs = tracer->records();
    const std::size_t from = recs.size() > 30 ? recs.size() - 30 : 0;
    for (std::size_t i = from; i < recs.size(); ++i) {
      std::printf("%s\n", stack::PacketTracer::format(recs[i]).c_str());
    }
  }
  return 0;
}

int cmd_dve(const Args& args) {
  const long nclients = args.num("clients", 2000);
  const long seconds = args.num("seconds", 300);
  const bool lb_on = args.get("lb", "on") == "on";

  dve::TestbedConfig cfg;
  cfg.dve_nodes = 5;
  cfg.policy.initiation = parse_initiation(args.get("initiation", "sender"));
  dve::Testbed bed(cfg);
  dve::ZoneGrid grid;
  for (std::uint32_t n = 0; n < 5; ++n) {
    for (const dve::ZoneId z : grid.zones_of_node(n, 5)) {
      dve::ZoneServerConfig zs;
      zs.zone = z;
      zs.base_cores = 0.010;
      zs.per_client_cores = 0.0007 * 10000 / static_cast<double>(nclients);
      zs.db_addr = bed.db_node()->local_addr();
      dve::ZoneServerApp::launch(bed.node(n).node, zs);
    }
  }
  dve::PopulationConfig pc;
  pc.client_count = static_cast<std::uint32_t>(nclients);
  pc.move_start = SimTime::seconds(seconds / 15);
  pc.move_end = SimTime::seconds(seconds * 4 / 5);
  pc.move_step_prob = 0.08;
  dve::Population pop(bed, grid, pc);
  pop.populate();
  pop.start_movement();

  int migrations = 0;
  for (std::uint32_t n = 0; n < 5; ++n) {
    bed.node(n).conductor.set_enabled(lb_on);
    bed.node(n).conductor.set_on_migration([&](const mig::MigrationStats& s) {
      ++migrations;
      std::printf("  >> t=%.0fs migrated %s %s -> %s (freeze %.2f ms)\n",
                  s.t_resume.to_sec(), s.proc_name.c_str(),
                  s.src_node.to_string().c_str(), s.dst_node.to_string().c_str(),
                  s.freeze_time().to_ms());
    });
  }

  std::printf("%-8s %8s %8s %8s %8s %8s   (CPU %%, LB %s)\n", "time", "node1",
              "node2", "node3", "node4", "node5", lb_on ? "on" : "off");
  const long step = std::max(10L, seconds / 15);
  for (long t = step; t <= seconds; t += step) {
    bed.run_until(SimTime::seconds(t));
    std::printf("%6lds  %8.1f %8.1f %8.1f %8.1f %8.1f\n", t,
                bed.node(0).node.cpu().node_utilization() * 100,
                bed.node(1).node.cpu().node_utilization() * 100,
                bed.node(2).node.cpu().node_utilization() * 100,
                bed.node(3).node.cpu().node_utilization() * 100,
                bed.node(4).node.cpu().node_utilization() * 100);
  }
  std::printf("migrations: %d, zone handoffs: %llu, client resets: %llu\n",
              migrations, static_cast<unsigned long long>(pop.zone_handoffs()),
              static_cast<unsigned long long>(pop.total_resets()));
  return pop.total_resets() == 0 ? 0 : 1;
}

int cmd_openarena(const Args& args) {
  const long nclients = args.num("clients", 24);
  const long seconds = args.num("seconds", 6);

  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  dve::Testbed bed(cfg);
  dve::GameServerConfig gs;
  auto proc = dve::GameServerApp::launch(bed.node(0).node, gs);
  std::vector<std::unique_ptr<dve::UdpGameClient>> clients;
  for (long i = 0; i < nclients; ++i) {
    auto c = std::make_unique<dve::UdpGameClient>(
        bed.make_client_host(), net::Endpoint{bed.public_ip(), gs.port});
    c->start();
    clients.push_back(std::move(c));
  }
  bed.run_for(SimTime::seconds(seconds / 2));

  mig::MigrationStats stats;
  bool done = false;
  bed.node(0).migd.migrate(proc->pid(), bed.node(1).node.local_addr(),
                           mig::SocketMigStrategy::incremental_collective,
                           [&](const mig::MigrationStats& s) {
                             stats = s;
                             done = true;
                           });
  bed.run_for(SimTime::seconds(seconds - seconds / 2));
  if (!done || !stats.success) {
    std::printf("migration FAILED\n");
    return 1;
  }
  std::size_t lost = 0;
  for (const auto& c : clients) lost += c->missing_snapshots();
  std::printf("OpenArena, %ld players: downtime %.2f ms, captured %llu, lost %zu\n",
              nclients, stats.freeze_time().to_ms(),
              static_cast<unsigned long long>(stats.captured), lost);
  return lost == 0 ? 0 : 1;
}

int cmd_help() {
  std::printf(
      "dvemig — OS-level process live migration for DVE clusters (simulated)\n\n"
      "  dvemig migrate   [--clients N] [--strategy iterative|collective|incremental]\n"
      "                   [--heap MiB] [--cold] [--trace] [--no-ts-adjust] [--no-dst-fix]\n"
      "  dvemig dve       [--clients N] [--seconds S] [--lb on|off]\n"
      "                   [--initiation sender|receiver|symmetric]\n"
      "  dvemig openarena [--clients N] [--seconds S]\n"
      "  dvemig help\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return cmd_help();
  const std::string cmd = argv[1];
  const Args args = parse(argc, argv, 2);
  if (cmd == "migrate") return cmd_migrate(args);
  if (cmd == "dve") return cmd_dve(args);
  if (cmd == "openarena") return cmd_openarena(args);
  return cmd_help();
}
