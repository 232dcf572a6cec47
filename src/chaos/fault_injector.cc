#include "chaos/fault_injector.h"

#include "rdma/wire.h"

namespace cowbird::chaos {

void FaultInjector::Attach(net::Link& link) {
  link.set_fault_filter(
      [this](const net::Packet& packet) { return Decide(packet); });
  links_.push_back(&link);
}

net::FaultAction FaultInjector::Decide(const net::Packet& packet) {
  net::FaultAction action;
  if (!rdma::LooksLikeRdma(packet)) return action;

  // Inside a partition window everything drops — counted as a decided
  // drop so the audit stays exact.
  const Nanos now = sim_->Now();
  for (const auto& window : plan_.partitions) {
    if (now >= window.start && now < window.end) {
      action.drop = true;
      ++dropped_;
      return action;
    }
  }

  // One uniform draw, partitioned by the (additive) rates: at most one
  // fault per packet, each with exactly its configured probability.
  const double u = rng_.NextDouble();
  double edge = plan_.drop_rate;
  if (u < edge) {
    action.drop = true;
    ++dropped_;
    return action;
  }
  edge += plan_.duplicate_rate;
  if (u < edge) {
    action.duplicate = static_cast<int>(
        rng_.Between(1, static_cast<std::uint64_t>(plan_.max_duplicates)));
    duplicated_ += static_cast<std::uint64_t>(action.duplicate);
    return action;
  }
  edge += plan_.reorder_rate;
  if (u < edge) {
    action.reorder = true;
    action.delay = plan_.reorder_delay;
    ++reordered_;
    return action;
  }
  edge += plan_.delay_rate;
  if (u < edge) {
    action.delay = static_cast<Nanos>(
        rng_.Between(static_cast<std::uint64_t>(plan_.delay_min),
                     static_cast<std::uint64_t>(plan_.delay_max)));
    ++delayed_;
    return action;
  }
  return action;
}

bool FaultInjector::CountersExact() const {
  std::uint64_t dropped = 0, duplicated = 0, reordered = 0, delayed = 0;
  for (const net::Link* link : links_) {
    dropped += link->faults_dropped();
    duplicated += link->faults_duplicated();
    reordered += link->faults_reordered();
    delayed += link->faults_delayed();
  }
  return dropped == decided_dropped() &&
         duplicated == decided_duplicated() &&
         reordered == decided_reordered() && delayed == decided_delayed();
}

}  // namespace cowbird::chaos
