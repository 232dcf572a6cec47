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

TopoNodeId Topology::AddSwitch(std::string name) {
  nodes_.push_back(Node{TopoNodeKind::kSwitch, std::move(name)});
  return static_cast<TopoNodeId>(nodes_.size() - 1);
}

TopoNodeId Topology::AddHost(TopoNodeKind kind, std::string name,
                             NodeId address, int cores) {
  COWBIRD_CHECK(kind != TopoNodeKind::kSwitch && cores > 0);
  nodes_.push_back(Node{kind, std::move(name), address, cores});
  return static_cast<TopoNodeId>(nodes_.size() - 1);
}

int Topology::AddEdge(TopoNodeId a, TopoNodeId b, BitRate rate,
                      Nanos propagation) {
  COWBIRD_CHECK(a >= 0 && a < node_count());
  COWBIRD_CHECK(b >= 0 && b < node_count());
  COWBIRD_CHECK(a != b);
  edges_.push_back(Edge{a, b, rate, propagation});
  return static_cast<int>(edges_.size() - 1);
}

}  // namespace cowbird::net
