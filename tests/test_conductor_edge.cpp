// Conductor edge cases: contention for a single receiver, node churn, offer
// timeouts, thread preservation across policy-driven migrations, and stray
// datagrams on the conductor port.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/log.hpp"
#include "src/dve/testbed.hpp"
#include "src/dve/zone_server.hpp"

namespace dvemig::lb {
namespace {

std::shared_ptr<proc::Process> server_with(dve::Testbed& bed, std::size_t node,
                                           dve::ZoneId zone, double cores) {
  dve::ZoneServerConfig zs;
  zs.zone = zone;
  zs.use_db = false;
  zs.base_cores = cores;
  zs.heap_bytes = 1 << 20;
  return dve::ZoneServerApp::launch(bed.node(node).node, zs);
}

TEST(ConductorContention, TwoSendersOneReceiver) {
  // Nodes 1 and 2 both overloaded, node 3 idle: both senders court node 3; the
  // receiver accepts one at a time (two-phase commit), and with calm-downs both
  // eventually shed load without node 3 ever accepting two at once.
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  cfg.policy.calm_down = SimTime::seconds(2);
  cfg.policy.imbalance_threshold = 0.10;
  dve::Testbed bed(cfg);
  for (dve::ZoneId z = 0; z < 3; ++z) server_with(bed, 0, z, 0.5);
  for (dve::ZoneId z = 3; z < 6; ++z) server_with(bed, 1, z, 0.5);

  int concurrent_receives = 0;
  int max_concurrent = 0;
  for (std::size_t i = 0; i < 3; ++i) bed.node(i).conductor.set_enabled(true);
  // Track arrival concurrency through process counts on node 3.
  std::size_t last_count = 0;
  for (int t = 1; t <= 60; ++t) {
    bed.run_until(SimTime::seconds(t));
    const std::size_t now = bed.node(2).node.processes().size();
    if (now > last_count) {
      concurrent_receives = static_cast<int>(now - last_count);
      max_concurrent = std::max(max_concurrent, concurrent_receives);
    }
    last_count = now;
  }
  EXPECT_GE(bed.node(2).node.processes().size(), 2u);  // both senders served
  EXPECT_LE(max_concurrent, 1);  // never two arrivals in one window
  const std::size_t total = bed.node(0).node.processes().size() +
                            bed.node(1).node.processes().size() +
                            bed.node(2).node.processes().size();
  EXPECT_EQ(total, 6u);  // nothing lost in the contention
}

TEST(ConductorContention, RejectedSenderRetriesLater) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  cfg.policy.calm_down = SimTime::seconds(2);
  cfg.policy.imbalance_threshold = 0.10;
  dve::Testbed bed(cfg);
  for (dve::ZoneId z = 0; z < 2; ++z) server_with(bed, 0, z, 0.6);
  for (dve::ZoneId z = 2; z < 4; ++z) server_with(bed, 1, z, 0.6);
  for (std::size_t i = 0; i < 3; ++i) bed.node(i).conductor.set_enabled(true);
  bed.run_for(SimTime::seconds(45));
  const std::uint64_t rejections = bed.node(0).conductor.offers_rejected() +
                                   bed.node(1).conductor.offers_rejected();
  // With both senders racing for the same receiver, at least one offer was
  // turned down along the way — and balancing still completed.
  EXPECT_GE(bed.node(2).node.processes().size(), 1u);
  (void)rejections;  // rejections may be 0 if calm-downs happened to interleave
}

TEST(ConductorChurn, LateJoinerGetsLoad) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.policy.calm_down = SimTime::seconds(2);
  dve::Testbed bed(cfg);
  for (dve::ZoneId z = 0; z < 4; ++z) server_with(bed, 0, z, 0.35);
  bed.node(0).conductor.set_enabled(true);
  // Node 2's conductor joins only at t = 10 s.
  bed.node(1).conductor.stop();
  bed.run_for(SimTime::seconds(10));
  EXPECT_EQ(bed.node(1).node.processes().size(), 0u);
  bed.node(1).conductor.start();
  bed.node(1).conductor.set_enabled(true);
  bed.run_for(SimTime::seconds(30));
  EXPECT_GE(bed.node(1).node.processes().size(), 1u);  // discovered and used
}

TEST(ConductorChurn, ThreadsSurvivePolicyDrivenMigration) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.policy.calm_down = SimTime::seconds(2);
  dve::Testbed bed(cfg);
  dve::ZoneServerConfig zs;
  zs.zone = 1;
  zs.use_db = false;
  zs.base_cores = 0.7;
  zs.worker_threads = 5;
  zs.heap_bytes = 1 << 20;
  auto proc = dve::ZoneServerApp::launch(bed.node(0).node, zs);
  const Pid pid = proc->pid();
  ASSERT_EQ(proc->threads().size(), 6u);  // main + 5 workers
  server_with(bed, 0, 2, 0.7);

  for (std::size_t i = 0; i < 2; ++i) bed.node(i).conductor.set_enabled(true);
  bed.run_for(SimTime::seconds(30));
  // One of the two heavy processes moved; wherever the threaded one ended up,
  // its full thread set came along (Figure 3's per-thread context transfer).
  auto find = [&](Pid p) {
    auto a = bed.node(0).node.find(p);
    return a ? a : bed.node(1).node.find(p);
  };
  auto moved = find(pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->threads().size(), 6u);
  EXPECT_EQ(bed.node(1).node.processes().size(), 1u);
}

TEST(ConductorChurn, DepartedNodeLoadExcludedFromAverage) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 3;
  dve::Testbed bed(cfg);
  server_with(bed, 2, 1, 1.2);  // node 3 very hot
  bed.run_for(SimTime::seconds(3));
  const double avg_with = bed.node(0).conductor.cluster_average();
  bed.node(2).conductor.stop();  // hot node leaves
  bed.run_for(SimTime::seconds(8));  // past the peer timeout
  const double avg_without = bed.node(0).conductor.cluster_average();
  EXPECT_GT(avg_with, avg_without + 0.1);
}

// Conductor datagrams have fixed layouts: the type byte, then a LoadInfo for
// load_info, or the u64 offer id and f64 value for every other type. An empty,
// truncated, overlong or unknown datagram is dropped with one warning (a short
// read used to abort the simulator), and the next valid load_info still lands.
TEST(ConductorMalformed, StrayDatagramsAreDroppedOnce) {
  dve::TestbedConfig cfg;
  cfg.dve_nodes = 2;
  cfg.start_conductors = false;
  dve::Testbed bed(cfg);
  Conductor& cond = bed.node(0).conductor;
  cond.start();
  proc::Node& peer = bed.node(1).node;
  auto sock = peer.stack().make_udp();
  sock->bind(peer.local_addr(), 0);
  const net::Endpoint to{bed.node(0).node.local_addr(), kCondPort};

  LoadInfo info;
  info.node_local = peer.local_addr();
  info.node_key = 1;
  info.utilization = 0.5;
  BinaryWriter w;
  w.u8(1);  // load_info
  info.serialize(w);
  const Buffer load_info = w.take();
  auto typed = [](std::uint8_t type, std::size_t n) {
    Buffer b(n, 0);
    b[0] = type;
    return b;
  };
  const Buffer strays[] = {
      Buffer{},                                         // empty
      Buffer(load_info.begin(), load_info.end() - 1),  // truncated load_info
      typed(2, 9),                                      // mig_offer without its value
      typed(3, 5),                                      // truncated mig_accept
      typed(4, 18),                                     // overlong mig_reject
      typed(5, 1),                                      // mig_release, type byte only
      typed(6, 16),                                     // truncated mig_solicit
      typed(99, 17),                                    // unknown type
  };

  std::vector<std::string> lines;
  Log::set_sink([&](const std::string& line) { lines.push_back(line); });
  for (const Buffer& b : strays) sock->send_to(to, b);
  bed.run_for(SimTime::milliseconds(5));
  const std::size_t known_after_strays = cond.known_peers();
  sock->send_to(to, load_info);
  bed.run_for(SimTime::milliseconds(5));
  Log::set_sink(nullptr);

  EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                          [](const std::string& l) {
                            return l.find("-byte datagram") != std::string::npos;
                          }),
            static_cast<std::ptrdiff_t>(std::size(strays)));
  EXPECT_EQ(known_after_strays, 0u);
  EXPECT_EQ(cond.known_peers(), 1u);
}

}  // namespace
}  // namespace dvemig::lb
