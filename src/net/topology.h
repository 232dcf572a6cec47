// The simulated fabric as an explicit graph.
//
// A Topology is a declarative plan built before any Simulation object
// exists: nodes are the things attached to the fabric (compute hosts,
// memory servers, spot hosts, switches), edges are the full-duplex
// net::Link attachments between them, each carrying its rate and
// propagation delay. A host node also carries its logical core count, so
// the graph fully describes the fabric that workload::Fabric builds from
// it.
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
    int cores = 0;       // logical cores of a host's machine; 0 for switches
  };
  // Full-duplex attachment: a Link in each direction, both with the same
  // rate and propagation delay (what HostNic::ConnectTo and ConnectTrunk
  // build).
  struct Edge {
    TopoNodeId a = -1;
    TopoNodeId b = -1;
    BitRate rate;
    Nanos propagation = 0;
  };

  TopoNodeId AddSwitch(std::string name);
  TopoNodeId AddHost(TopoNodeKind kind, std::string name, NodeId address,
                     int cores);
  int AddEdge(TopoNodeId a, TopoNodeId b, BitRate rate, Nanos propagation);

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
