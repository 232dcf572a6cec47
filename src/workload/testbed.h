// The evaluation testbed (Section 7) as a reusable object: one switch,
// a compute node (16 logical cores, as Xeon Silver 4110 with HT), a memory
// pool node, a spot node (1 core granted to the Cowbird-Spot agent), and a
// bystander node for contending traffic (Figure 14). All links 100 Gbps
// except the bystander's 25 Gbps NIC, matching the paper's setup. Every
// host, NIC and the switch run on the testbed's one Simulation.
//
// FanInTestbed below generalizes the same wiring to K compute clients and M
// memory servers around one switch (plus a spot host): the rack-size
// fan-in fabric the scaling workload runs on, optionally two-tier.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sparse_memory.h"
#include "net/switch.h"
#include "net/topology.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/simulation.h"
#include "sim/thread.h"

namespace cowbird::workload {

struct Testbed {
  static constexpr net::NodeId kComputeId = 1;
  static constexpr net::NodeId kMemoryId = 2;
  static constexpr net::NodeId kSpotId = 3;
  static constexpr net::NodeId kBystanderId = 4;

  rdma::FabricParams fabric;
  rdma::NicConfig nic_config;
  sim::Simulation sim;
  net::Switch sw;
  net::HostNic compute_nic;
  net::HostNic memory_nic;
  net::HostNic spot_nic;
  net::HostNic bystander_nic;
  SparseMemory compute_mem;
  SparseMemory memory_mem;
  SparseMemory spot_mem;
  rdma::Device compute_dev;
  rdma::Device memory_dev;
  rdma::Device spot_dev;
  sim::Machine compute_machine;
  sim::Machine memory_machine;
  sim::Machine spot_machine;

  explicit Testbed(int compute_cores = 16,
                   BitRate compute_uplink = BitRate::Gbps(100))
      : sw(sim,
           net::Switch::Config{.pipeline_latency = fabric.switch_pipeline}),
        compute_nic(sim, kComputeId, compute_uplink,
                    fabric.link_propagation),
        memory_nic(sim, kMemoryId, fabric.host_link,
                   fabric.link_propagation),
        spot_nic(sim, kSpotId, fabric.host_link, fabric.link_propagation),
        bystander_nic(sim, kBystanderId, BitRate::Gbps(25),
                      fabric.link_propagation),
        compute_dev(compute_nic, compute_mem, nic_config),
        memory_dev(memory_nic, memory_mem, nic_config),
        spot_dev(spot_nic, spot_mem, nic_config),
        compute_machine(sim, compute_cores),
        memory_machine(sim, 8),
        spot_machine(sim, 1) {
    compute_nic.ConnectTo(sw);
    memory_nic.ConnectTo(sw);
    spot_nic.ConnectTo(sw);
    bystander_nic.ConnectTo(sw);
  }
};

// K compute clients and M memory servers fanning into one top-of-rack
// switch, plus one spot host running the offload engine — the rack-size
// fabric of the scaling workload (defaults: 12 + 2 + spot + switch = 16
// nodes), described as a net::Topology and run on one event loop.
struct FanInConfig {
  int clients = 12;
  int memory_servers = 2;
  int client_cores = 4;
  int memory_cores = 8;
  BitRate client_uplink = BitRate::Gbps(100);
  // Two-tier fabric: > 1 spreads the clients over this many per-group ToR
  // switches (contiguous blocks of ceil(clients/groups) clients each), every
  // group ToR trunked into the core switch. 1 keeps the flat single-switch
  // fan-in byte-identical to the historical wiring. Memory servers and the
  // spot host stay on the core either way.
  int client_groups = 1;
  BitRate trunk_rate = BitRate::Gbps(400);  // group ToR <-> core
  // Propagation delay of the ToR <-> core trunks; 0 keeps the fabric
  // profile's link_propagation. Hall-scale core runs are optical and an
  // order of magnitude longer than in-rack cabling.
  Nanos trunk_propagation = 0;
  // Propagation delay of the client uplinks; 0 keeps the fabric profile's
  // link_propagation everywhere. In-rack client <-> ToR cabling is a few
  // meters of DAC (~5 ns/m), an order of magnitude shorter than the
  // rack-to-rack runs.
  Nanos client_propagation = 0;
  // Congestion realism knobs. The defaults reproduce the uncontended
  // fabric byte-for-byte: unbounded-feeling queues, no marking, no PFC,
  // DCQCN off. An incast experiment shrinks the queue, turns marking or
  // PFC on, and enables DCQCN on every NIC.
  Bytes egress_queue_capacity = MiB(4);
  Bytes ecn_threshold = 0;
  bool pfc = false;
  rdma::DcqcnConfig dcqcn;
  // Go-Back-N timeout for every NIC. DCQCN experiments must raise this
  // above the worst congested RTT: pacing delays that cross the timeout
  // read as loss, and the resulting rewinds re-execute whole read windows
  // (a retransmission storm the rate control then amplifies).
  Nanos retransmit_timeout = Micros(100);
};

struct FanInTestbed {
  FanInConfig cfg;
  rdma::FabricParams fabric;
  rdma::NicConfig nic_config;
  sim::Simulation sim;
  net::Topology topo;  // names the nodes; telemetry labels series by them
  net::Switch sw;
  // Two-tier only (cfg.client_groups > 1): one leaf switch per client
  // group, each trunked into the core.
  std::vector<std::unique_ptr<net::Switch>> group_tors;
  std::vector<net::TrunkPorts> trunks;  // [g] ports: a=core side, b=leaf
  std::vector<std::unique_ptr<net::HostNic>> client_nics;
  std::vector<std::unique_ptr<SparseMemory>> client_mems;
  std::vector<std::unique_ptr<rdma::Device>> client_devs;
  std::vector<std::unique_ptr<sim::Machine>> client_machines;
  std::vector<std::unique_ptr<net::HostNic>> memory_nics;
  std::vector<std::unique_ptr<SparseMemory>> memory_mems;
  std::vector<std::unique_ptr<rdma::Device>> memory_devs;
  std::vector<std::unique_ptr<sim::Machine>> memory_machines;
  std::unique_ptr<net::HostNic> spot_nic;
  std::unique_ptr<SparseMemory> spot_mem;
  std::unique_ptr<rdma::Device> spot_dev;
  std::unique_ptr<sim::Machine> spot_machine;

  // Topology node ids: clients first, then the core switch, the memory
  // servers, and the spot host. Two-tier group ToRs are appended after the
  // legacy nodes so every id here is valid for any group count.
  net::TopoNodeId client_node(int k) const { return k; }
  net::TopoNodeId switch_node() const { return cfg.clients; }
  net::TopoNodeId memory_node(int m) const { return cfg.clients + 1 + m; }
  net::TopoNodeId spot_node() const {
    return cfg.clients + 1 + cfg.memory_servers;
  }
  net::TopoNodeId group_tor_node(int g) const { return spot_node() + 1 + g; }
  static int GroupOfClient(const FanInConfig& cfg, int k) {
    if (cfg.client_groups <= 1) return 0;
    const int per_group =
        (cfg.clients + cfg.client_groups - 1) / cfg.client_groups;
    return k / per_group;
  }
  int group_of_client(int k) const { return GroupOfClient(cfg, k); }
  // Fabric addresses (switch routing).
  net::NodeId client_id(int k) const {
    return static_cast<net::NodeId>(1 + k);
  }
  net::NodeId memory_id(int m) const {
    return static_cast<net::NodeId>(1 + cfg.clients + m);
  }
  net::NodeId spot_id() const {
    return static_cast<net::NodeId>(1 + cfg.clients + cfg.memory_servers);
  }

  static net::Switch::Config MakeSwitchConfig(
      const FanInConfig& cfg, const rdma::FabricParams& fabric) {
    net::Switch::Config sc;
    sc.pipeline_latency = fabric.switch_pipeline;
    sc.egress_queue_capacity = cfg.egress_queue_capacity;
    sc.ecn_threshold = cfg.ecn_threshold;
    sc.pfc_enabled = cfg.pfc;
    return sc;
  }

  static net::Topology BuildTopo(const FanInConfig& cfg, Nanos propagation) {
    net::Topology topo;
    for (int k = 0; k < cfg.clients; ++k) {
      topo.AddNode(net::TopoNodeKind::kComputeHost,
                   "client" + std::to_string(k),
                   static_cast<net::NodeId>(1 + k));
    }
    const net::TopoNodeId tor =
        topo.AddNode(net::TopoNodeKind::kSwitch, "tor");
    for (int m = 0; m < cfg.memory_servers; ++m) {
      topo.AddNode(net::TopoNodeKind::kMemoryServer,
                   "mem" + std::to_string(m),
                   static_cast<net::NodeId>(1 + cfg.clients + m));
    }
    const net::TopoNodeId spot = topo.AddNode(
        net::TopoNodeKind::kSpotHost, "spot",
        static_cast<net::NodeId>(1 + cfg.clients + cfg.memory_servers));
    // Two-tier group ToRs, appended after the legacy nodes so client /
    // switch / memory / spot node ids never move.
    const bool two_tier = cfg.client_groups > 1;
    if (two_tier) {
      for (int g = 0; g < cfg.client_groups; ++g) {
        topo.AddNode(net::TopoNodeKind::kSwitch, "gtor" + std::to_string(g));
      }
    }
    const int first_gtor = spot + 1;
    const Nanos client_prop =
        cfg.client_propagation > 0 ? cfg.client_propagation : propagation;
    for (int k = 0; k < cfg.clients; ++k) {
      topo.AddEdge(k, two_tier ? first_gtor + GroupOfClient(cfg, k) : tor,
                   client_prop);
    }
    for (int m = 0; m < cfg.memory_servers; ++m) {
      topo.AddEdge(cfg.clients + 1 + m, tor, propagation);
    }
    topo.AddEdge(spot, tor, propagation);
    if (two_tier) {
      const Nanos trunk_prop =
          cfg.trunk_propagation > 0 ? cfg.trunk_propagation : propagation;
      for (int g = 0; g < cfg.client_groups; ++g) {
        topo.AddEdge(first_gtor + g, tor, trunk_prop);
      }
    }
    return topo;
  }

  explicit FanInTestbed(const FanInConfig& config)
      : cfg(config),
        topo(BuildTopo(cfg, fabric.link_propagation)),
        sw(sim, MakeSwitchConfig(cfg, fabric)) {
    // Two-tier leaves: built (and trunked) before any host connects, so the
    // flat fabric's core port numbering — clients, memories, spot — is
    // reproduced on each switch that hosts attach to.
    if (cfg.client_groups > 1) {
      for (int g = 0; g < cfg.client_groups; ++g) {
        group_tors.push_back(
            std::make_unique<net::Switch>(sim, MakeSwitchConfig(cfg, fabric)));
        trunks.push_back(net::ConnectTrunk(
            sw, *group_tors.back(), cfg.trunk_rate,
            cfg.trunk_propagation > 0 ? cfg.trunk_propagation
                                      : fabric.link_propagation));
        // Leaf default-routes everything unknown (memories, spot, the
        // engine's switch address) up its trunk; the core routes each
        // client block down the matching trunk.
        group_tors.back()->SetDefaultRoute(trunks.back().b_port);
      }
      for (int k = 0; k < cfg.clients; ++k) {
        sw.SetRoute(client_id(k), trunks[static_cast<std::size_t>(
                                             group_of_client(k))].a_port);
      }
    }
    // Before any Device copies nic_config.
    nic_config.dcqcn = cfg.dcqcn;
    nic_config.retransmit_timeout = cfg.retransmit_timeout;
    const Nanos client_prop = cfg.client_propagation > 0
                                  ? cfg.client_propagation
                                  : fabric.link_propagation;
    for (int k = 0; k < cfg.clients; ++k) {
      client_nics.push_back(std::make_unique<net::HostNic>(
          sim, client_id(k), cfg.client_uplink, client_prop));
      client_mems.push_back(std::make_unique<SparseMemory>());
      client_devs.push_back(std::make_unique<rdma::Device>(
          *client_nics.back(), *client_mems.back(), nic_config));
      client_machines.push_back(
          std::make_unique<sim::Machine>(sim, cfg.client_cores));
    }
    for (int m = 0; m < cfg.memory_servers; ++m) {
      memory_nics.push_back(std::make_unique<net::HostNic>(
          sim, memory_id(m), fabric.host_link, fabric.link_propagation));
      memory_mems.push_back(std::make_unique<SparseMemory>());
      memory_devs.push_back(std::make_unique<rdma::Device>(
          *memory_nics.back(), *memory_mems.back(), nic_config));
      memory_machines.push_back(
          std::make_unique<sim::Machine>(sim, cfg.memory_cores));
    }
    spot_nic = std::make_unique<net::HostNic>(
        sim, spot_id(), fabric.host_link, fabric.link_propagation);
    spot_mem = std::make_unique<SparseMemory>();
    spot_dev =
        std::make_unique<rdma::Device>(*spot_nic, *spot_mem, nic_config);
    spot_machine = std::make_unique<sim::Machine>(sim, 1);

    for (int k = 0; k < cfg.clients; ++k) {
      client_nics[static_cast<std::size_t>(k)]->ConnectTo(client_switch(k));
    }
    for (int m = 0; m < cfg.memory_servers; ++m) {
      memory_nics[static_cast<std::size_t>(m)]->ConnectTo(sw);
    }
    spot_nic->ConnectTo(sw);
  }

  // The switch a client's NIC attaches to (its group ToR when two-tier).
  net::Switch& client_switch(int k) {
    return cfg.client_groups > 1
               ? *group_tors[static_cast<std::size_t>(group_of_client(k))]
               : sw;
  }

  // Fabric-wide drop count (core plus any group ToRs).
  std::uint64_t switch_drops() const {
    std::uint64_t total = sw.total_drops();
    for (const auto& leaf : group_tors) total += leaf->total_drops();
    return total;
  }
};

}  // namespace cowbird::workload
