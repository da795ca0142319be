// Meta-data analysis (paper §IV-B): agent-version and protocol histograms
// (Fig. 3, Fig. 4), go-ipfs version-change classification (Table III),
// role-flapping counts, and the anomaly fingerprints the paper highlights.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/symbol.hpp"
#include "common/version.hpp"
#include "measure/dataset.hpp"

namespace ipfs::analysis {

/// Fig. 3: occurrences of agent strings, with go-ipfs grouped by version
/// number (the paper plots "0.11.0", "0.8.0", … for go-ipfs and the full
/// string for other agents; PIDs with no identify result count as
/// "missing").
[[nodiscard]] common::CountedHistogram agent_histogram(const measure::Dataset& dataset);

/// Fig. 4: occurrences of announced protocols (each PID counts once per
/// protocol it ever announced).
[[nodiscard]] common::CountedHistogram protocol_histogram(
    const measure::Dataset& dataset);

/// Headline metadata counts quoted in §IV-B's prose.
struct MetadataSummary {
  std::uint64_t total_pids = 0;
  std::uint64_t distinct_agent_strings = 0;
  std::uint64_t distinct_protocols = 0;
  std::uint64_t go_ipfs_pids = 0;          ///< "50'254 claim to use go-ipfs"
  std::uint64_t go_ipfs_version_count = 0; ///< "263 different go-ipfs versions"
  std::uint64_t hydra_pids = 0;            ///< 1'028
  std::uint64_t crawler_pids = 0;          ///< 586
  std::uint64_t other_agent_pids = 0;      ///< 10'926
  std::uint64_t missing_agent_pids = 0;    ///< 3'059
  std::uint64_t bitswap_supporters = 0;    ///< 44'463
  std::uint64_t kad_supporters = 0;        ///< 18'845 (DHT servers)
};

[[nodiscard]] MetadataSummary summarize_metadata(const measure::Dataset& dataset);

/// Table III: go-ipfs agent-version changes.
struct VersionChangeCounts {
  std::uint64_t upgrades = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t changes = 0;  ///< same version, different commit
  std::uint64_t main_to_main = 0;
  std::uint64_t main_to_dirty = 0;
  std::uint64_t dirty_to_main = 0;
  std::uint64_t dirty_to_dirty = 0;
  /// Changes from a non-go-ipfs agent to go-ipfs (the paper saw one).
  std::uint64_t into_go_ipfs = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return upgrades + downgrades + changes;
  }
};

[[nodiscard]] VersionChangeCounts count_version_changes(const measure::Dataset& dataset);

/// §IV-B role flapping: peers toggling a protocol announcement and the sum
/// of toggle events (kad: 2'481 peers / 68'396 changes; autonat: 3'603 /
/// 86'651).
struct FlappingStats {
  std::uint64_t peers = 0;
  std::uint64_t events = 0;
};

[[nodiscard]] FlappingStats protocol_flapping(const measure::Dataset& dataset,
                                              common::Symbol protocol);

/// Anomaly fingerprints from §IV-B's curiosity hunt.
struct AnomalyReport {
  /// go-ipfs agents that never announced any /ipfs/bitswap variant —
  /// suspected disguised storm nodes (7'498 of v0.8.0 in the paper).
  std::uint64_t go_ipfs_without_bitswap = 0;
  /// …of which also announced /sbptp/1.0.0 (the storm protocol).
  std::uint64_t go_ipfs_with_sbptp = 0;
  /// PIDs announcing the storm agent string outright.
  std::uint64_t storm_agents = 0;
  /// Agents containing "ethereum" (the paper found a go-ethereum node).
  std::uint64_t ethereum_agents = 0;
};

[[nodiscard]] AnomalyReport find_anomalies(const measure::Dataset& dataset);

/// Group label used by `agent_histogram` for one agent string: go-ipfs
/// collapses to its version number, others keep name(/version); empty
/// becomes "missing".
[[nodiscard]] std::string agent_group_label(std::string_view agent);

}  // namespace ipfs::analysis
