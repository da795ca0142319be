#include "measure/dataset.hpp"

#include <algorithm>
#include <ostream>

#include "common/flat_set.hpp"
#include "common/json.hpp"

namespace ipfs::measure {

PeerIndex Dataset::intern(const p2p::PeerId& pid, SimTime now) {
  const auto it = index_.find(pid);
  if (it != index_.end()) {
    PeerRecord& existing = peers_[it->second];
    existing.last_seen = std::max(existing.last_seen, now);
    return it->second;
  }
  const auto index = static_cast<PeerIndex>(peers_.size());
  PeerRecord record;
  record.pid = pid;
  record.first_seen = now;
  record.last_seen = now;
  peers_.push_back(std::move(record));
  index_.emplace(pid, index);
  by_peer_cache_.clear();
  return index;
}

const PeerRecord* Dataset::find(const p2p::PeerId& pid) const {
  const auto it = index_.find(pid);
  return it == index_.end() ? nullptr : &peers_[it->second];
}

const std::vector<std::vector<std::uint32_t>>& Dataset::connections_by_peer() const {
  if (by_peer_cache_.size() != peers_.size() || peers_.empty()) {
    by_peer_cache_.assign(peers_.size(), {});
    for (std::uint32_t i = 0; i < connections_.size(); ++i) {
      by_peer_cache_[connections_[i].peer].push_back(i);
    }
  }
  return by_peer_cache_;
}

void Dataset::merge(const Dataset& other) {
  measurement_start = peers_.empty() && connections_.empty()
                          ? other.measurement_start
                          : std::min(measurement_start, other.measurement_start);
  measurement_end = std::max(measurement_end, other.measurement_end);

  std::vector<PeerIndex> remap(other.peers_.size());
  for (std::size_t i = 0; i < other.peers_.size(); ++i) {
    const PeerRecord& theirs = other.peers_[i];
    const PeerIndex mine = intern(theirs.pid, theirs.first_seen);
    remap[i] = mine;
    PeerRecord& ours = peers_[mine];
    ours.first_seen = std::min(ours.first_seen, theirs.first_seen);
    ours.last_seen = std::max(ours.last_seen, theirs.last_seen);
    ours.ever_dht_server = ours.ever_dht_server || theirs.ever_dht_server;
    ours.agent_history.insert(ours.agent_history.end(), theirs.agent_history.begin(),
                              theirs.agent_history.end());
    std::sort(ours.agent_history.begin(), ours.agent_history.end(),
              [](const AgentEvent& a, const AgentEvent& b) { return a.at < b.at; });
    ours.protocol_events.insert(ours.protocol_events.end(),
                                theirs.protocol_events.begin(),
                                theirs.protocol_events.end());
    std::sort(ours.protocol_events.begin(), ours.protocol_events.end(),
              [](const ProtocolEvent& a, const ProtocolEvent& b) { return a.at < b.at; });
    common::flat_union(ours.protocols_ever, theirs.protocols_ever);
    common::flat_union(ours.connected_ips, theirs.connected_ips);
  }

  connections_.reserve(connections_.size() + other.connections_.size());
  for (ConnRecord record : other.connections_) {
    record.peer = remap[record.peer];
    connections_.push_back(record);
  }
  by_peer_cache_.clear();
}

void Dataset::export_json(std::ostream& out, bool include_connections,
                          bool pretty) const {
  common::JsonWriter json(out, pretty);
  json.begin_object();
  json.field("vantage", vantage);
  json.field("measurement_start_ms", measurement_start);
  json.field("measurement_end_ms", measurement_end);
  json.key("peers");
  json.begin_array();
  for (const PeerRecord& peer : peers_) {
    json.begin_object();
    json.field("pid", peer.pid.to_string());
    json.field("first_seen_ms", peer.first_seen);
    json.field("last_seen_ms", peer.last_seen);
    json.field("ever_dht_server", peer.ever_dht_server);
    json.key("agents");
    json.begin_array();
    for (const AgentEvent& event : peer.agent_history) {
      json.begin_object();
      json.field("at_ms", event.at);
      json.field("agent", event.agent.view());
      json.end_object();
    }
    json.end_array();
    json.key("protocols_ever");
    json.begin_array();
    for (const common::Symbol protocol : peer.protocols_ever) json.value(protocol.view());
    json.end_array();
    json.key("connected_ips");
    json.begin_array();
    for (const p2p::IpAddress& ip : peer.connected_ips) json.value(ip.to_string());
    json.end_array();
    json.end_object();
  }
  json.end_array();
  if (include_connections) {
    json.key("connections");
    json.begin_array();
    for (const ConnRecord& record : connections_) {
      json.begin_object();
      json.field("peer", static_cast<std::uint64_t>(record.peer));
      json.field("opened_ms", record.opened);
      json.field("closed_ms", record.closed);
      json.field("direction", p2p::to_string(record.direction));
      json.field("reason", p2p::to_string(record.reason));
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  out << '\n';
}

}  // namespace ipfs::measure
