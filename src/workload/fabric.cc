#include "workload/fabric.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/pool.h"
#include "rdma/congestion.h"

namespace cowbird::workload {
namespace {

using net::TopoNodeId;
using net::TopoNodeKind;

const telemetry::Labels kEventPoolLabels = {{"pool", "sim_events"}};

// Adds a host hanging off switch `sw` by one link.
void AddHostOn(net::Topology& topo, TopoNodeId sw, TopoNodeKind kind,
               std::string name, net::NodeId address, int cores,
               BitRate rate = rdma::FabricParams{}.host_link) {
  topo.AddEdge(topo.AddHost(kind, std::move(name), address, cores), sw, rate,
               rdma::FabricParams{}.link_propagation);
}

}  // namespace

net::Switch::Config DefaultSwitchConfig() {
  return net::Switch::Config{
      .pipeline_latency = rdma::FabricParams{}.switch_pipeline};
}

Fabric::Host::Host(sim::Simulation& sim, const net::Topology& topology,
                   TopoNodeId id, const net::Topology::Edge& edge,
                   const rdma::NicConfig& nic_config, net::Switch& sw)
    : node(id),
      nic(sim, topology.node(id).address, edge.rate, edge.propagation),
      dev(nic, mem, nic_config),
      machine(sim, topology.node(id).cores),
      attached(&sw) {
  nic.ConnectTo(sw);
}

Fabric::Fabric(net::Topology topology, net::Switch::Config switch_config,
               rdma::NicConfig nic_config, telemetry::Hub* hub)
    : topology_(std::move(topology)), hub_(hub) {
  // Per node: its switch (switch nodes), the edge it hangs off by, and the
  // index of its trunk (leaves).
  struct Wiring {
    net::Switch* sw = nullptr;
    const net::Topology::Edge* up = nullptr;
    int trunk = -1;
  };
  const int nodes = topology_.node_count();
  std::vector<Wiring> at(nodes);
  for (TopoNodeId n = 0; n < nodes; ++n) {
    if (topology_.node(n).kind != TopoNodeKind::kSwitch) continue;
    switches_.push_back(std::make_unique<net::Switch>(sim, switch_config));
    at[n].sw = switches_.back().get();
  }
  COWBIRD_CHECK(!switches_.empty());
  net::Switch& core = sw();

  // Every node but the core hangs off one switch by one edge: a host by its
  // link, a leaf by its trunk into the core. Trunks connect first, in edge
  // order, so the core numbers its leaves' ports before its hosts'.
  for (int e = 0; e < topology_.edge_count(); ++e) {
    const net::Topology::Edge& edge = topology_.edge(e);
    const bool a_above = at[edge.a].sw != nullptr &&
                         (at[edge.a].sw == &core || at[edge.b].sw == nullptr);
    Wiring& above = at[a_above ? edge.a : edge.b];
    Wiring& below = at[a_above ? edge.b : edge.a];
    COWBIRD_CHECK(above.sw != nullptr && below.up == nullptr);
    below.up = &edge;
    if (below.sw == nullptr) continue;
    COWBIRD_CHECK(above.sw == &core);
    trunks_.push_back(
        net::ConnectTrunk(core, *below.sw, edge.rate, edge.propagation));
    below.sw->SetDefaultRoute(trunks_.back().b_port);
    below.trunk = static_cast<int>(trunks_.size()) - 1;
  }
  auto parent = [&](TopoNodeId n) -> const Wiring& {
    COWBIRD_CHECK(at[n].up != nullptr);
    return at[at[n].up->a == n ? at[n].up->b : at[n].up->a];
  };

  // The core reaches a leaf's hosts down that leaf's trunk. Then each host
  // is built and connected, in graph order.
  for (TopoNodeId n = 0; n < nodes; ++n) {
    if (at[n].sw == nullptr && parent(n).trunk >= 0) {
      core.SetRoute(topology_.node(n).address,
                    trunks_[parent(n).trunk].a_port);
    }
  }
  hosts_.reserve(nodes);
  for (TopoNodeId n = 0; n < nodes; ++n) {
    if (at[n].sw != nullptr) continue;
    hosts_.push_back(std::make_unique<Host>(sim, topology_, n, *at[n].up,
                                            nic_config, *parent(n).sw));
    by_kind_[static_cast<std::size_t>(topology_.node(n).kind)].push_back(
        hosts_.back().get());
  }
  if (hub_ != nullptr) BindTelemetry();
}

Fabric::~Fabric() {
  if (hub_ == nullptr) return;
  UnbindPoolTelemetry(hub_->metrics, kEventPoolLabels);
  // The caller keeps the hub past the fabric's simulation: open spans
  // clamp to the final virtual time instead of reading a dead clock.
  hub_->tracer.SetClock([now = sim.Now()] { return now; });
}

void Fabric::BindTelemetry() {
  hub_->tracer.SetClock([this] { return sim.Now(); });
  for (const auto& host : hosts_) {
    const std::string& name = topology_.node(host->node).name;
    host->dev.BindTelemetry(hub_->metrics, {{"node", name}});
    host->uplink().BindTelemetry(hub_->metrics,
                                 {{"link", "uplink[" + name + "]"}});
    host->egress().BindTelemetry(hub_->metrics,
                                 {{"link", "egress[" + name + "]"}});
  }
  // Datapath object pools: in-use / high-water / exhaustion gauges make a
  // mis-sized pool visible instead of silently degrading to the heap.
  BindPoolTelemetry(hub_->metrics, kEventPoolLabels, sim.EventPoolStats());
}

std::uint64_t Fabric::SumSwitches(
    std::uint64_t (net::Switch::*counter)() const) const {
  std::uint64_t total = 0;
  for (const auto& s : switches_) total += (*s.*counter)();
  return total;
}

std::uint64_t Fabric::link_pauses() {
  std::uint64_t total = 0;
  for (const auto& s : switches_) {
    for (int p = 0; p < s->PortCount(); ++p) {
      total += s->EgressLink(p).pauses_received();
    }
  }
  for (const auto& host : hosts_) total += host->uplink().pauses_received();
  return total;
}

std::uint64_t Fabric::retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) total += host->dev.total_retransmissions();
  return total;
}

std::uint64_t Fabric::cnps() {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) {
    if (rdma::CongestionManager* cm = host->dev.congestion()) {
      total += cm->cnps_received();
    }
  }
  return total;
}

// ------------------------------------------------------------- topologies

net::Topology Section7Topology(BitRate compute_uplink) {
  net::Topology topo;
  const TopoNodeId tor = topo.AddSwitch("tor");
  AddHostOn(topo, tor, TopoNodeKind::kComputeHost, "compute", kComputeId, 16,
            compute_uplink);
  AddHostOn(topo, tor, TopoNodeKind::kMemoryServer, "memory", kMemoryId, 8);
  AddHostOn(topo, tor, TopoNodeKind::kSpotHost, "spot", kSpotId, 1);
  AddHostOn(topo, tor, TopoNodeKind::kBystanderHost, "bystander",
            kBystanderId, 1, BitRate::Gbps(25));
  return topo;
}

net::Topology ChaosTopology(bool memory2) {
  net::Topology topo;
  const TopoNodeId tor = topo.AddSwitch("tor");
  AddHostOn(topo, tor, TopoNodeKind::kComputeHost, "compute", kComputeId, 16);
  AddHostOn(topo, tor, TopoNodeKind::kMemoryServer, "memory", kMemoryId, 1);
  AddHostOn(topo, tor, TopoNodeKind::kSpotHost, "spot", kSpotId, 1);
  if (memory2) {
    AddHostOn(topo, tor, TopoNodeKind::kMemoryServer, "memory2", kMemory2Id,
              1);
  }
  return topo;
}

net::Topology RackTopology(int clients, int memory_servers, int client_cores,
                           int client_groups, Nanos client_propagation,
                           Nanos trunk_propagation) {
  const rdma::FabricParams fabric;
  net::Topology topo;
  for (int k = 0; k < clients; ++k) {
    topo.AddHost(TopoNodeKind::kComputeHost, "client" + std::to_string(k),
                 static_cast<net::NodeId>(1 + k), client_cores);
  }
  const TopoNodeId tor = topo.AddSwitch("tor");
  for (int m = 0; m < memory_servers; ++m) {
    AddHostOn(topo, tor, TopoNodeKind::kMemoryServer,
              "mem" + std::to_string(m),
              static_cast<net::NodeId>(1 + clients + m), 8);
  }
  AddHostOn(topo, tor, TopoNodeKind::kSpotHost, "spot",
            static_cast<net::NodeId>(1 + clients + memory_servers), 1);
  // Group ToRs append after the flat rack's nodes, so every id above is
  // the same for any group count.
  const bool two_tier = client_groups > 1;
  const TopoNodeId first_leaf = topo.node_count();
  for (int g = 0; two_tier && g < client_groups; ++g) {
    topo.AddEdge(topo.AddSwitch("gtor" + std::to_string(g)), tor,
                 BitRate::Gbps(400),
                 trunk_propagation > 0 ? trunk_propagation
                                       : fabric.link_propagation);
  }
  const int per_group =
      (clients + client_groups - 1) / std::max(client_groups, 1);
  for (int k = 0; k < clients; ++k) {
    topo.AddEdge(k, two_tier ? first_leaf + k / per_group : tor,
                 fabric.host_link,
                 client_propagation > 0 ? client_propagation
                                        : fabric.link_propagation);
  }
  return topo;
}

}  // namespace cowbird::workload
