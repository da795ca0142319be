#include "p2p/conn_manager.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace ipfs::p2p {

int ConnManager::tag(const PeerId& peer) const {
  const auto it = tags_.find(peer);
  return it == tags_.end() ? 0 : it->second;
}

std::vector<ConnectionId> ConnManager::plan_trim(
    const std::vector<const Connection*>& open, common::SimTime now) const {
  std::vector<ConnectionId> to_close;
  if (!above_high_water(open.size())) return to_close;

  // Each candidate's order key is computed once here, not once per
  // comparison.  Among equal tags go-libp2p's victim order is effectively
  // arbitrary (map iteration).  A salted hash reproduces that: each trim
  // pass culls a pseudo-random subset, which gives connection lifetimes
  // their geometric tail (paper §IV-A's 73 s median with a 196 s mean).
  struct Candidate {
    const Connection* connection;
    int tag_value;
    std::uint64_t order;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(open.size());
  for (const Connection* connection : open) {
    if (now - connection->opened < config_.grace_period) continue;
    if (protected_.contains(connection->remote)) continue;
    candidates.push_back({connection, tag(connection->remote),
                          common::mix64(connection->id, static_cast<std::uint64_t>(now))});
  }

  const std::size_t target = static_cast<std::size_t>(std::max(config_.low_water, 0));
  if (open.size() <= target) return to_close;
  std::size_t excess = open.size() - target;

  // Ties in (tag, order) land wherever std::sort leaves them (DESIGN.md §5, trim tie order).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.tag_value != b.tag_value) return a.tag_value < b.tag_value;
              return a.order < b.order;
            });

  for (const Candidate& candidate : candidates) {
    if (excess == 0) break;
    to_close.push_back(candidate.connection->id);
    --excess;
  }
  return to_close;
}

}  // namespace ipfs::p2p
