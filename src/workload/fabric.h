// One fabric builder: a net::Topology in, the simulated fabric out, on one
// Simulation. The first switch in graph order is the core; every other
// switch is a leaf trunked into it, default-routing up its trunk while the
// core routes the leaf's hosts down it. Each host node becomes a Host (NIC,
// memory, RDMA device, machine), built and connected in graph order after
// the trunks, so switch port numbers follow the graph.
//
// With a telemetry hub the fabric points the tracer clock at its
// simulation, labels each device {node=<name>} and each host link
// uplink[<name>] / egress[<name>], and binds {pool=sim_events}. Teardown
// freezes the tracer clock at the final virtual time; links, switches and
// devices unbind their own gauges.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sparse_memory.h"
#include "net/switch.h"
#include "net/topology.h"
#include "rdma/device.h"
#include "rdma/params.h"
#include "sim/simulation.h"
#include "sim/thread.h"
#include "telemetry/hub.h"

namespace cowbird::workload {

// Fabric addresses of the Section 7 and chaos testbeds' hosts.
inline constexpr net::NodeId kComputeId = 1;
inline constexpr net::NodeId kMemoryId = 2;
inline constexpr net::NodeId kSpotId = 3;
inline constexpr net::NodeId kBystanderId = 4;
inline constexpr net::NodeId kMemory2Id = 4;

// The testbed's switch pipeline latency on a default switch config.
net::Switch::Config DefaultSwitchConfig();

class Fabric {
 public:
  // One host node: its NIC on the fabric, its memory, the RDMA device over
  // both, and the machine its threads run on.
  struct Host {
    Host(sim::Simulation& sim, const net::Topology& topology,
         net::TopoNodeId id, const net::Topology::Edge& edge,
         const rdma::NicConfig& nic_config, net::Switch& sw);

    net::TopoNodeId node;
    net::HostNic nic;
    SparseMemory mem;
    rdma::Device dev;
    sim::Machine machine;
    net::Switch* attached;  // the switch the host hangs off

    net::Link& uplink() { return nic.uplink(); }
    net::Link& egress() { return attached->EgressLink(nic.switch_port()); }
  };

  explicit Fabric(net::Topology topology,
                  net::Switch::Config switch_config = DefaultSwitchConfig(),
                  rdma::NicConfig nic_config = {},
                  telemetry::Hub* hub = nullptr);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const net::Topology& topology() const { return topology_; }

  // The core switch, and every switch in graph order (core first).
  net::Switch& sw() { return *switches_.front(); }
  net::Switch& switch_at(int i) { return *switches_[i]; }
  int switch_count() const { return static_cast<int>(switches_.size()); }
  // Trunk ports of leaf switch_at(i + 1): a on the core, b on the leaf.
  const net::TrunkPorts& trunk(int i) const { return trunks_[i]; }

  // Hosts in graph order, and the i-th host of each kind.
  Host& host(int i) { return *hosts_[i]; }
  int host_count() const { return static_cast<int>(hosts_.size()); }
  Host& compute(int i = 0) { return OfKind(Kind::kComputeHost, i); }
  Host& memory(int i = 0) { return OfKind(Kind::kMemoryServer, i); }
  Host& spot() { return OfKind(Kind::kSpotHost, 0); }
  Host& bystander() { return OfKind(Kind::kBystanderHost, 0); }

  // Fabric-wide sums over every switch, link and device.
  std::uint64_t switch_drops() const {
    return SumSwitches(&net::Switch::total_drops);
  }
  std::uint64_t ecn_marked() const {
    return SumSwitches(&net::Switch::ecn_marked);
  }
  std::uint64_t pfc_pauses() const {
    return SumSwitches(&net::Switch::pfc_pauses_sent);
  }
  std::uint64_t link_pauses();  // pause frames honored on every link
  std::uint64_t retransmissions() const;
  std::uint64_t cnps();

  sim::Simulation sim;  // declared before, so destroyed after, the rest

 private:
  using Kind = net::TopoNodeKind;
  Host& OfKind(Kind kind, int i) {
    return *by_kind_[static_cast<std::size_t>(kind)][i];
  }
  void BindTelemetry();
  std::uint64_t SumSwitches(
      std::uint64_t (net::Switch::*counter)() const) const;

  net::Topology topology_;
  telemetry::Hub* hub_;
  std::vector<std::unique_ptr<net::Switch>> switches_;
  std::vector<net::TrunkPorts> trunks_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::array<std::vector<Host*>, static_cast<std::size_t>(Kind::kSwitch)>
      by_kind_;  // host kinds precede kSwitch
};

// Section 7: compute (16 cores), memory (8), spot (1 core, the agent's)
// and a 25 Gbps bystander for contending traffic (Figure 14), around one
// switch. Every other link runs at the testbed's 100 Gbps.
net::Topology Section7Topology(
    BitRate compute_uplink = rdma::FabricParams{}.host_link);

// The chaos testbed: compute, memory and spot; `memory2` adds a second
// memory server at kMemory2Id, the live-migration destination.
net::Topology ChaosTopology(bool memory2 = false);

// The fan-in rack: K clients and M memory servers around one top-of-rack
// switch, plus a spot host. Node ids: clients 0..K-1, the switch K, memory
// servers K+1.., the spot host K+M+1, then the group ToRs. With
// client_groups > 1 the clients spread over that many group ToRs in
// contiguous blocks of ceil(K / groups), each trunked into the core at
// 400 Gbps; memories and the spot host stay on the core. A zero
// propagation keeps the testbed's link propagation.
net::Topology RackTopology(int clients, int memory_servers, int client_cores,
                           int client_groups = 1, Nanos client_propagation = 0,
                           Nanos trunk_propagation = 0);

}  // namespace cowbird::workload
