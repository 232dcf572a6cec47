// The topology graph (net/topology.h) and the fabrics the builder
// (workload/fabric.h) constructs from it:
//
//   * Topology round-trips nodes (kind, name, fabric address, cores) and
//     edges (endpoints, rate, propagation).
//   * The Section 7 and chaos testbeds number their switch ports in graph
//     order.
//   * The two-tier rack appends its group ToRs after the flat rack's nodes
//     and wires trunks and routes to match the graph.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "workload/fabric.h"

namespace cowbird {
namespace {

using net::TopoNodeId;
using net::TopoNodeKind;
using net::Topology;
using workload::Fabric;

// ------------------------------------------------------------------- Topology

TEST(TopologyTest, RoundTripsNodesAndEdges) {
  Topology topo;
  const TopoNodeId host = topo.AddHost(TopoNodeKind::kComputeHost, "client0",
                                       /*address=*/1, /*cores=*/4);
  const TopoNodeId tor = topo.AddSwitch("tor");
  const TopoNodeId mem = topo.AddHost(TopoNodeKind::kMemoryServer, "mem0",
                                      /*address=*/2, /*cores=*/8);
  const int uplink = topo.AddEdge(host, tor, BitRate::Gbps(25), 200);
  const int down = topo.AddEdge(tor, mem, BitRate::Gbps(100), 150);

  ASSERT_EQ(topo.node_count(), 3);
  ASSERT_EQ(topo.edge_count(), 2);
  EXPECT_EQ(topo.node(host).kind, TopoNodeKind::kComputeHost);
  EXPECT_EQ(topo.node(host).name, "client0");
  EXPECT_EQ(topo.node(host).address, 1u);
  EXPECT_EQ(topo.node(host).cores, 4);
  EXPECT_EQ(topo.node(tor).kind, TopoNodeKind::kSwitch);
  EXPECT_EQ(topo.node(tor).address, 0u);
  EXPECT_EQ(topo.edge(uplink).a, host);
  EXPECT_EQ(topo.edge(uplink).b, tor);
  EXPECT_EQ(topo.edge(uplink).rate.bits_per_sec,
            BitRate::Gbps(25).bits_per_sec);
  EXPECT_EQ(topo.edge(uplink).propagation, 200);
  EXPECT_EQ(topo.edge(down).a, tor);
  EXPECT_EQ(topo.edge(down).b, mem);
}

TEST(TopologyTest, KindNamesCoverEveryKind) {
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kComputeHost), "compute");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kMemoryServer), "memory");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kSpotHost), "spot");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kBystanderHost),
               "bystander");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kSwitch), "switch");
}

// ------------------------------------------------------ fabrics from graphs

TEST(TestbedTopologyTest, Section7PortsFollowTheGraph) {
  Fabric bed(workload::Section7Topology(BitRate::Gbps(40)));
  ASSERT_EQ(bed.switch_count(), 1);
  ASSERT_EQ(bed.host_count(), 4);
  EXPECT_EQ(bed.compute().nic.switch_port(), 0);
  EXPECT_EQ(bed.memory().nic.switch_port(), 1);
  EXPECT_EQ(bed.spot().nic.switch_port(), 2);
  EXPECT_EQ(bed.bystander().nic.switch_port(), 3);
  EXPECT_EQ(bed.sw().RouteFor(workload::kBystanderId), 3);
  // Link rates and core counts come from the graph.
  EXPECT_EQ(bed.compute().uplink().rate().bits_per_sec,
            BitRate::Gbps(40).bits_per_sec);
  EXPECT_EQ(bed.bystander().uplink().rate().bits_per_sec,
            BitRate::Gbps(25).bits_per_sec);
  EXPECT_EQ(bed.memory().egress().rate().bits_per_sec,
            BitRate::Gbps(100).bits_per_sec);
  EXPECT_EQ(bed.compute().machine.cores(), 16);
  EXPECT_EQ(bed.memory().machine.cores(), 8);
  EXPECT_EQ(bed.spot().machine.cores(), 1);
}

TEST(TestbedTopologyTest, ChaosMemory2TakesAddressFourOnPortThree) {
  Fabric bed(workload::ChaosTopology(/*memory2=*/true));
  ASSERT_EQ(bed.host_count(), 4);
  EXPECT_EQ(bed.memory(0).nic.id(), workload::kMemoryId);
  EXPECT_EQ(bed.memory(1).nic.id(), workload::kMemory2Id);
  EXPECT_EQ(bed.memory(1).nic.id(), 4u);
  EXPECT_EQ(bed.memory(1).nic.switch_port(), 3);
  EXPECT_EQ(bed.sw().RouteFor(workload::kMemory2Id), 3);
  // Without memory2 the chaos testbed is compute, memory and spot only.
  Fabric plain(workload::ChaosTopology());
  EXPECT_EQ(plain.host_count(), 3);
  EXPECT_EQ(plain.spot().nic.switch_port(), 2);
}

TEST(TestbedTopologyTest, TwoTierFanInAppendsGroupTorsAfterLegacyNodes) {
  Fabric bed(workload::RackTopology(/*clients=*/6, /*memory_servers=*/2,
                                    /*client_cores=*/2, /*client_groups=*/2));
  const Topology& topo = bed.topology();
  // 6 clients + core + 2 memories + spot + 2 group ToRs = 12 nodes; the
  // group ToRs append after the flat rack's ids, so client / switch /
  // memory / spot node ids do not depend on the group count.
  ASSERT_EQ(topo.node_count(), 12);
  EXPECT_EQ(topo.node(6).name, "tor");
  EXPECT_EQ(topo.node(7).name, "mem0");
  EXPECT_EQ(topo.node(9).kind, TopoNodeKind::kSpotHost);
  EXPECT_EQ(topo.node(10).name, "gtor0");
  EXPECT_EQ(topo.node(11).name, "gtor1");
  // 6 client uplinks + 2 memory + 1 spot + 2 trunks = 11 edges.
  EXPECT_EQ(topo.edge_count(), 11);
  ASSERT_EQ(bed.switch_count(), 3);
  // Contiguous client blocks of ceil(6/2) = 3: clients 0-2 on the first
  // group ToR, 3-5 on the second. Memories and spot stay on the core.
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(bed.compute(k).attached, &bed.switch_at(1 + k / 3)) << k;
    EXPECT_EQ(bed.compute(k).nic.id(), static_cast<net::NodeId>(1 + k));
  }
  EXPECT_EQ(bed.memory(1).attached, &bed.sw());
  EXPECT_EQ(bed.spot().attached, &bed.sw());
  EXPECT_EQ(bed.spot().nic.id(), 9u);
  // Trunks take the core's first ports, before any host attaches.
  EXPECT_EQ(bed.trunk(0).a_port, 0);
  EXPECT_EQ(bed.trunk(1).a_port, 1);
  EXPECT_EQ(bed.memory(0).nic.switch_port(), 2);
  // Leaves default-route unknown destinations (memories, spot) up their
  // trunk; the core routes each client block down the matching trunk.
  EXPECT_EQ(bed.switch_at(1).RouteFor(bed.memory(0).nic.id()),
            bed.trunk(0).b_port);
  EXPECT_EQ(bed.sw().RouteFor(bed.compute(0).nic.id()), bed.trunk(0).a_port);
  EXPECT_EQ(bed.sw().RouteFor(bed.compute(5).nic.id()), bed.trunk(1).a_port);
}

}  // namespace
}  // namespace cowbird
