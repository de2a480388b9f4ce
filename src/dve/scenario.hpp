// Scenario catalogue: the worlds of the paper's evaluation (Section VI), built
// once for the figure benches, the dvemig CLI, the examples and the tests.
//
//   migrate_and_wait — one live migration between two testbed nodes, waited on;
//   ZoneServerPoint  — a zone server plus N TCP clients (Fig. 5b/5c);
//   OpenArenaPoint   — a game server plus N UDP clients (Fig. 4);
//   Dve              — zone servers on every node plus a drifting client
//                      population (Fig. 5d-f).
//
// A builder only makes the world; each caller keeps its own testbed
// configuration, settle time and measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/dve/client.hpp"
#include "src/dve/game_server.hpp"
#include "src/dve/population.hpp"
#include "src/dve/testbed.hpp"
#include "src/dve/zone_server.hpp"

namespace dvemig::dve {

/// Live-migrate `pid` from node `from` of `bed` to node `to` and run the
/// simulation until the migration reports or `budget` has passed, in steps of
/// `slice` (zero: one step of the whole budget). Returns the migration's stats,
/// or nothing if migd refused it or it did not report within the budget.
std::optional<mig::MigrationStats> migrate_and_wait(Testbed& bed, Pid pid,
                                                    std::size_t from, std::size_t to,
                                                    const mig::MigrateOptions& options,
                                                    SimDuration budget,
                                                    SimDuration slice = {});

/// The TCP clients of a zone-server point.
struct ZoneClients {
  std::size_t count{0};
  /// Size of the message each active client sends every 50 ms.
  std::size_t message_bytes{48};
  /// Only the first `active` clients send; the others only receive.
  std::size_t active{SIZE_MAX};
  /// Client hosts the clients share round robin (one per client when larger).
  std::size_t hosts{SIZE_MAX};
  /// Client i connects at `ramp_offset + i * ramp`; a zero ramp connects every
  /// client at once.
  SimDuration ramp{};
  SimDuration ramp_offset{};
};

/// One zone server on one node and the TCP clients of its zone.
struct ZoneServerPoint {
  /// Launch a zone server with `zs` on node `node` of `bed` (its DB session
  /// on the testbed's database when `zs.use_db`) and the clients `spec` asks for.
  ZoneServerPoint(Testbed& bed, ZoneServerConfig zs, const ZoneClients& spec,
                  std::size_t node = 0);

  std::uint64_t updates_received() const;
  std::uint64_t resets_seen() const;

  std::shared_ptr<proc::Process> proc;
  std::vector<std::unique_ptr<TcpDveClient>> clients;
};

/// An OpenArena game server on node 0 and `count` UDP clients, all started,
/// each sending a command every `cmd_period`.
struct OpenArenaPoint {
  OpenArenaPoint(Testbed& bed, std::size_t count,
                 SimDuration cmd_period = SimTime::milliseconds(50));

  std::size_t missing_snapshots() const;

  GameServerConfig config;
  std::shared_ptr<proc::Process> proc;
  std::vector<std::unique_ptr<UdpGameClient>> clients;
};

/// The load-balanced DVE: a zone server with `zs` for every zone of `grid`, on
/// the node ZoneGrid::zones_of_node assigns it among the nodes of `bed`, and
/// a Population with `pc`, connecting and drifting.
class Dve {
 public:
  Dve(Testbed& bed, const ZoneGrid& grid, ZoneServerConfig zs, PopulationConfig pc);
  Dve(const Dve&) = delete;
  Dve& operator=(const Dve&) = delete;

  Population& population() { return population_; }
  const Population& population() const { return population_; }
  const std::vector<std::shared_ptr<proc::Process>>& servers() const { return servers_; }

 private:
  std::vector<std::shared_ptr<proc::Process>> servers_;
  Population population_;
};

}  // namespace dvemig::dve
