#include "net/topology.h"

#include <utility>

#include "common/check.h"

namespace cowbird::net {

const char* TopoNodeKindName(TopoNodeKind kind) {
  switch (kind) {
    case TopoNodeKind::kComputeHost:
      return "compute";
    case TopoNodeKind::kMemoryServer:
      return "memory";
    case TopoNodeKind::kSpotHost:
      return "spot";
    case TopoNodeKind::kBystanderHost:
      return "bystander";
    case TopoNodeKind::kSwitch:
      return "switch";
  }
  return "?";
}

TopoNodeId Topology::AddNode(TopoNodeKind kind, std::string name,
                             NodeId address) {
  nodes_.push_back(Node{kind, std::move(name), address});
  return static_cast<TopoNodeId>(nodes_.size() - 1);
}

int Topology::AddEdge(TopoNodeId a, TopoNodeId b, Nanos propagation,
                      std::string name) {
  COWBIRD_CHECK(a >= 0 && a < node_count());
  COWBIRD_CHECK(b >= 0 && b < node_count());
  COWBIRD_CHECK(a != b);
  if (name.empty()) {
    name = node(a).name + "<->" + node(b).name;
  }
  edges_.push_back(Edge{a, b, propagation, std::move(name)});
  return static_cast<int>(edges_.size() - 1);
}

}  // namespace cowbird::net
