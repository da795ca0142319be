// The passive-measurement dataset (§III-A/B).
//
// Everything the paper analyses comes from two record streams per vantage
// node: (1) connection events — per connection-id: direction, open/close
// timestamps, close attribution — and (2) peerstore observations — per PID:
// agent strings, protocol announcements and multiaddresses, each change
// timestamped.  `Dataset` is the in-memory form of the JSON files the
// paper's clients exported; `analysis::*` consumes it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sim_time.hpp"
#include "common/symbol.hpp"
#include "p2p/connection.hpp"
#include "p2p/multiaddr.hpp"
#include "p2p/peer_id.hpp"

namespace ipfs::measure {

using common::SimDuration;
using common::SimTime;

/// Index of a peer within a dataset.
using PeerIndex = std::uint32_t;

/// One recorded connection (closed, or force-closed at measurement end).
struct ConnRecord {
  PeerIndex peer = 0;
  SimTime opened = 0;
  SimTime closed = 0;
  p2p::Direction direction = p2p::Direction::kInbound;
  p2p::CloseReason reason = p2p::CloseReason::kNone;

  [[nodiscard]] SimDuration duration() const noexcept { return closed - opened; }
};

/// A timestamped agent-version observation.
struct AgentEvent {
  SimTime at = 0;
  common::Symbol agent;
};

/// A timestamped protocol announcement change.
struct ProtocolEvent {
  SimTime at = 0;
  common::Symbol protocol;
  bool added = true;
};

/// Everything recorded about one PID.
struct PeerRecord {
  p2p::PeerId pid;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
  /// Agent strings in observation order; empty if identify never completed
  /// (the paper's "missing" category, 3'059 PIDs).
  std::vector<AgentEvent> agent_history;
  /// Full protocol change log (adds and removals).
  std::vector<ProtocolEvent> protocol_events;
  /// Every protocol ever announced; sorted by text, unique.
  std::vector<common::Symbol> protocols_ever;
  /// IPs this PID *connected from* (the §V-A grouping key); sorted, unique.
  std::vector<p2p::IpAddress> connected_ips;
  bool ever_dht_server = false;

  [[nodiscard]] common::Symbol current_agent() const {
    return agent_history.empty() ? common::Symbol() : agent_history.back().agent;
  }
};

/// A complete measurement dataset from one vantage (or a merged union).
class Dataset {
 public:
  /// Name shown in tables ("go-ipfs", "Hydra H0", …).
  std::string vantage;
  SimTime measurement_start = 0;
  SimTime measurement_end = 0;

  [[nodiscard]] SimDuration duration() const noexcept {
    return measurement_end - measurement_start;
  }

  /// Find-or-create the record for a PID.
  PeerIndex intern(const p2p::PeerId& pid, SimTime now);

  [[nodiscard]] const PeerRecord* find(const p2p::PeerId& pid) const;
  [[nodiscard]] PeerRecord& record(PeerIndex index) { return peers_[index]; }
  [[nodiscard]] const PeerRecord& record(PeerIndex index) const { return peers_[index]; }

  [[nodiscard]] const std::vector<PeerRecord>& peers() const noexcept { return peers_; }
  [[nodiscard]] std::vector<PeerRecord>& peers() noexcept { return peers_; }
  [[nodiscard]] const std::vector<ConnRecord>& connections() const noexcept {
    return connections_;
  }

  void add_connection(ConnRecord record) { connections_.push_back(record); }

  [[nodiscard]] std::size_t peer_count() const noexcept { return peers_.size(); }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return connections_.size();
  }

  /// Per-peer connection lists (built on demand, cached).
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& connections_by_peer()
      const;

  /// Union-merge another vantage's dataset into this one (the paper reports
  /// the hydra as the union of its heads, §III-C).  Connection records keep
  /// their own timestamps; peer metadata merges field-wise.
  void merge(const Dataset& other);

  /// Export in the spirit of the paper's periodic JSON dumps.
  void export_json(std::ostream& out, bool include_connections = true,
                   bool pretty = true) const;

 private:
  std::vector<PeerRecord> peers_;
  std::unordered_map<p2p::PeerId, PeerIndex> index_;
  std::vector<ConnRecord> connections_;
  mutable std::vector<std::vector<std::uint32_t>> by_peer_cache_;
};

}  // namespace ipfs::measure
