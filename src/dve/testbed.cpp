#include "src/dve/testbed.hpp"

#include "src/dve/client.hpp"

namespace dvemig::dve {

namespace {

constexpr net::Ipv4Addr kClusterIp = net::Ipv4Addr::octets(203, 0, 113, 10);

net::Ipv4Addr node_local_addr(std::uint32_t i) {
  return net::Ipv4Addr::octets(192, 168, 1, static_cast<std::uint8_t>(10 + i));
}

constexpr net::Ipv4Addr kDbLocalAddr = net::Ipv4Addr::octets(192, 168, 1, 250);

}  // namespace

NodeBundle::NodeBundle(sim::Engine& engine, proc::NodeConfig node_cfg,
                       mig::CostModel cm, lb::PolicyConfig policy)
    : node(engine, std::move(node_cfg)),
      migd(node, cm),
      conductor(node, migd, policy) {}

Testbed::Testbed(TestbedConfig cfg)
    : cfg_(cfg),
      switch_(engine_, cfg.cluster_link),
      router_(engine_, kClusterIp, cfg.public_link) {
  for (std::uint32_t i = 0; i < cfg_.dve_nodes; ++i) {
    proc::NodeConfig nc;
    nc.id = NodeId{i + 1};
    nc.name = "node" + std::to_string(i + 1);
    nc.public_addr = kClusterIp;
    nc.local_addr = node_local_addr(i);
    nc.cpu_cores = cfg_.cpu_cores;
    // Distinct boot times: each node's jiffies run ahead of the previous one's —
    // the skew the TCP timestamp adjustment must absorb.
    nc.clock_offset = SimTime::seconds(100 + 137 * static_cast<std::int64_t>(i));

    auto bundle = std::make_unique<NodeBundle>(engine_, nc, cfg_.cost_model,
                                               cfg_.policy);
    proc::Node& n = bundle->node;
    // Local interface first: it is the default (primary) source for daemons.
    n.stack().add_interface(
        nc.local_addr,
        switch_.attach(nc.local_addr,
                       [&n](net::Packet&& p) { n.stack().rx(std::move(p)); }));
    n.stack().add_interface(
        kClusterIp,
        router_.attach_node(i, [&n](net::Packet&& p) { n.stack().rx(std::move(p)); }));

    bundle->migd.start();
    if (cfg_.start_conductors) {
      bundle->conductor.set_enabled(false);  // balancing opt-in per experiment
      bundle->conductor.start();
    }
    nodes_.push_back(std::move(bundle));
  }

  if (cfg_.with_db) {
    proc::NodeConfig dc;
    dc.id = NodeId{1000};
    dc.name = "dbserver";
    dc.public_addr = net::Ipv4Addr::any();
    dc.local_addr = kDbLocalAddr;
    dc.cpu_cores = 4.0;
    dc.clock_offset = SimTime::seconds(5000);
    db_node_ = std::make_unique<proc::Node>(engine_, dc);
    db_node_->stack().add_interface(
        kDbLocalAddr,
        switch_.attach(kDbLocalAddr, [this](net::Packet&& p) {
          db_node_->stack().rx(std::move(p));
        }));
    db_server_ = std::make_unique<DatabaseServer>(*db_node_);
    db_server_->start();
    db_translation_ = std::make_unique<mig::TranslationManager>(db_node_->stack());
    db_transd_ = std::make_unique<mig::Transd>(*db_node_, *db_translation_,
                                               cfg_.cost_model);
    db_transd_->start();
  }
}

ClientHost& Testbed::make_client_host() {
  const std::uint32_t n = next_client_ip_++;
  // 100.64.0.0/10 client address pool, skipping .0 and .255 host bytes.
  const net::Ipv4Addr addr = net::Ipv4Addr::octets(
      100, static_cast<std::uint8_t>(64 + n / 65025),
      static_cast<std::uint8_t>(1 + (n / 255) % 255),
      static_cast<std::uint8_t>(1 + n % 255));
  clients_.push_back(std::make_unique<ClientHost>(
      engine_, router_, addr, "cli" + std::to_string(n),
      SimTime::seconds(10 + static_cast<std::int64_t>(n % 977))));
  return *clients_.back();
}

}  // namespace dvemig::dve
