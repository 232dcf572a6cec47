// The simulated fabric as an explicit graph.
//
// A Topology is a declarative plan built before any Simulation object
// exists: nodes are the things attached to the fabric (compute hosts,
// memory servers, spot hosts, switches), edges are the full-duplex
// net::Link attachments between them, each carrying its propagation delay.
// The rack-scale fan-in testbed describes its fabric this way (node names
// label its telemetry series); every node runs on the run's one event loop.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "net/packet.h"

namespace cowbird::net {

enum class TopoNodeKind {
  kComputeHost,
  kMemoryServer,
  kSpotHost,
  kBystanderHost,
  kSwitch,
};

const char* TopoNodeKindName(TopoNodeKind kind);

using TopoNodeId = int;

class Topology {
 public:
  struct Node {
    TopoNodeKind kind = TopoNodeKind::kComputeHost;
    std::string name;
    NodeId address = 0;  // fabric address (switch routing); 0 for switches
  };
  // Full-duplex attachment: a Link in each direction, both with the same
  // propagation delay (what every HostNic::ConnectTo builds today).
  struct Edge {
    TopoNodeId a = -1;
    TopoNodeId b = -1;
    Nanos propagation = 0;
    std::string name;
  };

  TopoNodeId AddNode(TopoNodeKind kind, std::string name, NodeId address = 0);
  int AddEdge(TopoNodeId a, TopoNodeId b, Nanos propagation,
              std::string name = {});

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int edge_count() const { return static_cast<int>(edges_.size()); }
  const Node& node(TopoNodeId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  const Edge& edge(int id) const {
    return edges_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

}  // namespace cowbird::net
