// The topology graph (net/topology.h) and the fabrics the testbeds
// describe with it:
//
//   * Topology round-trips nodes (kind, name, fabric address) and edges
//     (endpoints, propagation, auto-generated names).
//   * The two-tier fan-in testbed appends its group ToRs after the legacy
//     nodes and wires its trunks and routes to match the graph.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "workload/testbed.h"

namespace cowbird {
namespace {

using net::TopoNodeId;
using net::TopoNodeKind;
using net::Topology;

// ------------------------------------------------------------------- Topology

TEST(TopologyTest, RoundTripsNodesAndEdges) {
  Topology topo;
  const TopoNodeId host =
      topo.AddNode(TopoNodeKind::kComputeHost, "client0", /*address=*/1);
  const TopoNodeId tor = topo.AddNode(TopoNodeKind::kSwitch, "tor");
  const TopoNodeId mem =
      topo.AddNode(TopoNodeKind::kMemoryServer, "mem0", /*address=*/2);
  const int uplink = topo.AddEdge(host, tor, 200, "uplink[client0]");
  const int auto_named = topo.AddEdge(mem, tor, 150);

  ASSERT_EQ(topo.node_count(), 3);
  ASSERT_EQ(topo.edge_count(), 2);
  EXPECT_EQ(topo.node(host).kind, TopoNodeKind::kComputeHost);
  EXPECT_EQ(topo.node(host).name, "client0");
  EXPECT_EQ(topo.node(host).address, 1u);
  EXPECT_EQ(topo.node(tor).address, 0u);
  EXPECT_EQ(topo.edge(uplink).a, host);
  EXPECT_EQ(topo.edge(uplink).b, tor);
  EXPECT_EQ(topo.edge(uplink).propagation, 200);
  EXPECT_EQ(topo.edge(uplink).name, "uplink[client0]");
  // Unnamed edges self-describe from their endpoint names.
  EXPECT_EQ(topo.edge(auto_named).name, "mem0<->tor");
}

TEST(TopologyTest, KindNamesCoverEveryKind) {
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kComputeHost), "compute");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kMemoryServer), "memory");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kSpotHost), "spot");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kBystanderHost),
               "bystander");
  EXPECT_STREQ(net::TopoNodeKindName(TopoNodeKind::kSwitch), "switch");
}

// ----------------------------------------------------- testbeds as topologies

TEST(TestbedTopologyTest, TwoTierFanInAppendsGroupTorsAfterLegacyNodes) {
  workload::FanInConfig cfg;
  cfg.clients = 6;
  cfg.memory_servers = 2;
  cfg.client_groups = 2;
  workload::FanInTestbed bed(cfg);
  // 6 clients + core + 2 memories + spot + 2 group ToRs = 12 nodes; the
  // group ToRs append after the legacy ids so client/switch/memory/spot
  // node ids are unchanged from the flat fabric.
  EXPECT_EQ(bed.topo.node_count(), 12);
  EXPECT_EQ(bed.switch_node(), 6);
  EXPECT_EQ(bed.spot_node(), 9);
  EXPECT_EQ(bed.group_tor_node(0), 10);
  EXPECT_EQ(bed.group_tor_node(1), 11);
  // Contiguous client blocks of ceil(6/2) = 3.
  EXPECT_EQ(bed.group_of_client(0), 0);
  EXPECT_EQ(bed.group_of_client(2), 0);
  EXPECT_EQ(bed.group_of_client(3), 1);
  EXPECT_EQ(bed.group_of_client(5), 1);
  // 6 client uplinks + 2 memory + 1 spot + 2 trunks = 11 edges.
  EXPECT_EQ(bed.topo.edge_count(), 11);
  ASSERT_EQ(bed.group_tors.size(), 2u);
  ASSERT_EQ(bed.trunks.size(), 2u);
  // Leaves default-route unknown destinations (memories, spot) up their
  // trunk; the core routes each client block down the matching trunk.
  EXPECT_EQ(bed.group_tors[0]->RouteFor(bed.memory_id(0)),
            bed.trunks[0].b_port);
  EXPECT_EQ(bed.sw.RouteFor(bed.client_id(0)), bed.trunks[0].a_port);
  EXPECT_EQ(bed.sw.RouteFor(bed.client_id(5)), bed.trunks[1].a_port);
}

}  // namespace
}  // namespace cowbird
