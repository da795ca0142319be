#include "analysis/metadata.hpp"

#include <algorithm>
#include <set>

#include "p2p/protocols.hpp"

namespace ipfs::analysis {

namespace proto = p2p::protocols;

std::string agent_group_label(std::string_view agent) {
  if (agent.empty()) return "missing";
  const auto info = common::AgentInfo::parse(agent);
  if (info.is_go_ipfs() && info.version) {
    return info.version->to_string();  // paper groups go-ipfs by version number
  }
  return std::string(agent);
}

common::CountedHistogram agent_histogram(const measure::Dataset& dataset) {
  common::CountedHistogram histogram;
  for (const measure::PeerRecord& peer : dataset.peers()) {
    // A peer counts under its *first* observed agent (the paper's per-PID
    // tally; later changes feed Table III instead).
    const common::Symbol agent =
        peer.agent_history.empty() ? common::Symbol() : peer.agent_history.front().agent;
    histogram.add(agent_group_label(agent.view()));
  }
  return histogram;
}

common::CountedHistogram protocol_histogram(const measure::Dataset& dataset) {
  common::CountedHistogram histogram;
  for (const measure::PeerRecord& peer : dataset.peers()) {
    for (const common::Symbol protocol : peer.protocols_ever) {
      histogram.add(protocol.str());
    }
  }
  return histogram;
}

MetadataSummary summarize_metadata(const measure::Dataset& dataset) {
  MetadataSummary summary;
  summary.total_pids = dataset.peer_count();

  std::set<common::Symbol> agent_strings;
  std::set<common::Symbol> go_ipfs_versions;
  std::set<common::Symbol> protocols;

  for (const measure::PeerRecord& peer : dataset.peers()) {
    protocols.insert(peer.protocols_ever.begin(), peer.protocols_ever.end());
    if (std::ranges::any_of(peer.protocols_ever, [](common::Symbol protocol) {
          return proto::is_bitswap(protocol.view());
        })) {
      ++summary.bitswap_supporters;
    }
    if (std::ranges::binary_search(peer.protocols_ever, proto::kKad)) {
      ++summary.kad_supporters;
    }

    if (peer.agent_history.empty()) {
      ++summary.missing_agent_pids;
      continue;
    }
    for (const measure::AgentEvent& event : peer.agent_history) {
      agent_strings.insert(event.agent);
      const auto info = common::AgentInfo::parse(event.agent.view());
      if (info.is_go_ipfs()) go_ipfs_versions.insert(event.agent);
    }
    const auto info = common::AgentInfo::parse(peer.agent_history.front().agent.view());
    if (info.is_go_ipfs()) {
      ++summary.go_ipfs_pids;
    } else if (info.name == "hydra-booster") {
      ++summary.hydra_pids;
    } else if (info.name.find("crawler") != std::string::npos) {
      ++summary.crawler_pids;
    } else {
      ++summary.other_agent_pids;
    }
  }
  summary.distinct_agent_strings = agent_strings.size();
  summary.distinct_protocols = protocols.size();
  summary.go_ipfs_version_count = go_ipfs_versions.size();
  return summary;
}

VersionChangeCounts count_version_changes(const measure::Dataset& dataset) {
  VersionChangeCounts counts;
  for (const measure::PeerRecord& peer : dataset.peers()) {
    for (std::size_t i = 1; i < peer.agent_history.size(); ++i) {
      const auto before =
          common::AgentInfo::parse(peer.agent_history[i - 1].agent.view());
      const auto after = common::AgentInfo::parse(peer.agent_history[i].agent.view());
      if (!before.is_go_ipfs() && after.is_go_ipfs()) {
        ++counts.into_go_ipfs;
        continue;
      }
      const auto kind = common::classify_version_change(before, after);
      if (kind == common::VersionChangeKind::kNone) continue;
      switch (kind) {
        case common::VersionChangeKind::kUpgrade: ++counts.upgrades; break;
        case common::VersionChangeKind::kDowngrade: ++counts.downgrades; break;
        case common::VersionChangeKind::kChange: ++counts.changes; break;
        case common::VersionChangeKind::kNone: break;
      }
      switch (common::classify_dirty_transition(before, after)) {
        case common::DirtyTransition::kMainToMain: ++counts.main_to_main; break;
        case common::DirtyTransition::kMainToDirty: ++counts.main_to_dirty; break;
        case common::DirtyTransition::kDirtyToMain: ++counts.dirty_to_main; break;
        case common::DirtyTransition::kDirtyToDirty: ++counts.dirty_to_dirty; break;
      }
    }
  }
  return counts;
}

FlappingStats protocol_flapping(const measure::Dataset& dataset,
                                common::Symbol protocol) {
  FlappingStats stats;
  for (const measure::PeerRecord& peer : dataset.peers()) {
    std::uint64_t toggles = 0;
    for (const measure::ProtocolEvent& event : peer.protocol_events) {
      if (event.protocol == protocol) ++toggles;
    }
    // The first "added" event is the initial announcement, not a change.
    if (toggles > 1) {
      ++stats.peers;
      stats.events += toggles - 1;
    }
  }
  return stats;
}

AnomalyReport find_anomalies(const measure::Dataset& dataset) {
  AnomalyReport report;
  for (const measure::PeerRecord& peer : dataset.peers()) {
    const common::Symbol agent = peer.current_agent();
    if (agent.empty()) continue;
    const auto info = common::AgentInfo::parse(agent.view());
    if (info.name == "storm") ++report.storm_agents;
    if (info.name.find("ethereum") != std::string::npos) ++report.ethereum_agents;
    if (info.is_go_ipfs()) {
      const bool has_bitswap =
          std::ranges::any_of(peer.protocols_ever, [](common::Symbol protocol) {
            return proto::is_bitswap(protocol.view());
          });
      if (!has_bitswap && !peer.protocols_ever.empty()) {
        ++report.go_ipfs_without_bitswap;
        if (std::ranges::binary_search(peer.protocols_ever, proto::kSbptp)) {
          ++report.go_ipfs_with_sbptp;
        }
      }
    }
  }
  return report;
}

}  // namespace ipfs::analysis
