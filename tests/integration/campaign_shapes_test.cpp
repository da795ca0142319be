// Campaign-level shape assertions: small-scale versions of the paper's
// qualitative findings.  These lock in the *shape* claims of every table
// and figure (who wins, which direction, which ordering) so regressions in
// the population model or engine surface as test failures.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/classification.hpp"
#include "analysis/connection_stats.hpp"
#include "analysis/metadata.hpp"
#include "analysis/size_estimation.hpp"
#include "analysis/timeseries.hpp"
#include "p2p/protocols.hpp"
#include "scenario/campaign.hpp"

namespace ipfs {
namespace {

using common::kDay;
using common::kHour;
using scenario::CampaignConfig;
using scenario::CampaignEngine;
using scenario::CampaignResult;
using scenario::PeriodSpec;
using scenario::PopulationSpec;

/// One shared P4-style campaign (5 % scale, 1.5 days) reused by the shape
/// tests — campaigns are deterministic, so sharing is sound.
const CampaignResult& p4_result() {
  static const CampaignResult result = [] {
    CampaignConfig config;
    config.period = PeriodSpec::P4();  // full 3-day period, 5 % population
    config.population = PopulationSpec::test_scale(0.05);
    config.seed = 20211210;
    auto engine = CampaignEngine::create(config);
    if (!engine) throw std::runtime_error("invalid campaign config: " + engine.error());
    return engine->run();
  }();
  return result;
}

TEST(CampaignShapes, AllAverageBelowPeerAverage_TableII) {
  const auto stats = analysis::compute_connection_stats(*p4_result().go_ipfs);
  // §IV-A: "The lower average value of all connections indicates peers
  // initiating many short lasting connections."
  EXPECT_LT(stats.all.average_s, stats.peer.average_s);
  // Medians sit far below averages (heavy right tail).
  EXPECT_LT(stats.all.median_s, stats.all.average_s / 5.0);
}

TEST(CampaignShapes, InboundDominatesOutbound_TableII) {
  const auto stats = analysis::compute_connection_stats(*p4_result().go_ipfs);
  // §IV-A: "vastly more inbound than outbound connections" with longer
  // inbound durations.
  EXPECT_GT(stats.direction.inbound_count, 5 * stats.direction.outbound_count);
  EXPECT_GT(stats.direction.inbound_avg_s, stats.direction.outbound_avg_s);
}

TEST(CampaignShapes, ClassOrdering_TableIV) {
  const auto counts = analysis::classify_peers(*p4_result().go_ipfs);
  const auto heavy = counts.peers[static_cast<std::size_t>(analysis::PeerClass::kHeavy)];
  const auto normal =
      counts.peers[static_cast<std::size_t>(analysis::PeerClass::kNormal)];
  const auto light = counts.peers[static_cast<std::size_t>(analysis::PeerClass::kLight)];
  const auto one_time =
      counts.peers[static_cast<std::size_t>(analysis::PeerClass::kOneTime)];
  // Table IV: one-time > light > normal > heavy, all four non-trivial.
  EXPECT_GT(heavy, 0u);
  EXPECT_GT(normal, heavy);
  EXPECT_GT(one_time, light / 2);  // same order of magnitude
  // Light peers contribute the majority of DHT servers (9'755 of 16'880).
  const auto light_servers =
      counts.dht_servers[static_cast<std::size_t>(analysis::PeerClass::kLight)];
  EXPECT_GT(light_servers * 2, light);
}

TEST(CampaignShapes, CdfAnchors_Fig7) {
  const auto cdfs = analysis::connection_cdfs(*p4_result().go_ipfs, -1);
  // "Around 53 % are connected less than 1 h" (±12 points at test scale).
  EXPECT_NEAR(cdfs.max_duration_s.fraction_at_most(3600.0), 0.53, 0.12);
  // "Around 16 % maintained a connection longer than 24 h."
  EXPECT_NEAR(1.0 - cdfs.max_duration_s.fraction_at_most(24.0 * 3600.0), 0.16, 0.08);
  // "Around 50 % have one connection."
  EXPECT_NEAR(cdfs.connection_count.fraction_at_most(1.0), 0.45, 0.15);
  // "Only around 10 % have more than 15 connections."  Connection reuse
  // (needed for Table II's Peer-type averages) thins this tail in the
  // model; we assert it stays a small minority (see EXPERIMENTS.md).
  EXPECT_LT(1.0 - cdfs.connection_count.fraction_at_most(15.0), 0.12);
  EXPECT_GT(1.0 - cdfs.connection_count.fraction_at_most(15.0), 0.005);
}

TEST(CampaignShapes, ServersChurnShorterThanAll_Fig7) {
  const auto servers = analysis::connection_cdfs(*p4_result().go_ipfs, 1);
  const auto clients = analysis::connection_cdfs(*p4_result().go_ipfs, 0);
  // §V-B: DHT servers trend toward shorter max durations (trimming).
  EXPECT_GT(servers.max_duration_s.fraction_at_most(3600.0),
            clients.max_duration_s.fraction_at_most(3600.0));
}

TEST(CampaignShapes, GroupingCompressesPids_SecVA) {
  const auto grouping = analysis::group_by_multiaddr(*p4_result().go_ipfs);
  // 65'853 PIDs -> 47'516 groups in the paper: 0.72-0.82 compression.
  const double ratio = static_cast<double>(grouping.groups) /
                       static_cast<double>(grouping.connected_pids);
  EXPECT_GT(ratio, 0.65);
  EXPECT_LT(ratio, 0.92);
  // Most groups are singletons (44'301 / 47'516 = 93 %).
  EXPECT_NEAR(static_cast<double>(grouping.singleton_groups) /
                  static_cast<double>(grouping.groups),
              0.93, 0.05);
  // One mega-group from the rotating-PID operator dominates.
  EXPECT_GT(grouping.largest_group, 30u);
  // Unique-IP PIDs < singleton groups (dual-homed peers), as in the paper.
  EXPECT_LT(grouping.unique_ip_pids, grouping.singleton_groups);
}

TEST(CampaignShapes, AgentMixAnchors_Fig3) {
  const auto summary = analysis::summarize_metadata(*p4_result().go_ipfs);
  const double total = static_cast<double>(summary.total_pids);
  EXPECT_NEAR(static_cast<double>(summary.go_ipfs_pids) / total, 0.763, 0.06);
  EXPECT_NEAR(static_cast<double>(summary.missing_agent_pids) / total, 0.046, 0.025);
  EXPECT_GT(summary.hydra_pids, 0u);
  EXPECT_GT(summary.crawler_pids, 0u);
  EXPECT_GT(summary.distinct_agent_strings, 10u);
}

TEST(CampaignShapes, ProtocolAnchors_Fig4) {
  const auto histogram = analysis::protocol_histogram(*p4_result().go_ipfs);
  const auto kad = histogram.count(p2p::protocols::kKad.str());
  const auto bitswap = histogram.count(p2p::protocols::kBitswap120.str());
  const auto identify = histogram.count(p2p::protocols::kIdentify.str());
  // Identify > bitswap > kad, as in Fig. 4 (18'845 kad vs 44'463 bitswap).
  EXPECT_GT(identify, bitswap);
  EXPECT_GT(bitswap, kad);
  EXPECT_GT(kad, 0u);
}

TEST(CampaignShapes, StormFingerprint_SecIVB) {
  const auto anomalies = analysis::find_anomalies(*p4_result().go_ipfs);
  // The disguised-storm block: go-ipfs agents without bitswap, nearly all
  // of them announcing sbptp.
  EXPECT_GT(anomalies.go_ipfs_without_bitswap, 100u);
  EXPECT_GE(anomalies.go_ipfs_with_sbptp, anomalies.go_ipfs_without_bitswap * 9 / 10);
  EXPECT_EQ(anomalies.ethereum_agents, 1u);
}

TEST(CampaignShapes, VersionChanges_TableIII) {
  const auto changes = analysis::count_version_changes(*p4_result().go_ipfs);
  // Upgrades > changes > downgrades, all present (218/205/107 in Table III;
  // at 5 % scale the expected counts are ~11/10/5).
  EXPECT_GT(changes.upgrades, 0u);
  EXPECT_GT(changes.total(), 10u);
  // Dirty-transition split: main-main and dirty-dirty dominate.
  EXPECT_GT(changes.main_to_main + changes.dirty_to_dirty,
            5 * (changes.main_to_dirty + changes.dirty_to_main + 1));
}

TEST(CampaignShapes, RoleFlapping_SecIVB) {
  const auto kad_flaps =
      analysis::protocol_flapping(*p4_result().go_ipfs, p2p::protocols::kKad);
  const auto autonat_flaps =
      analysis::protocol_flapping(*p4_result().go_ipfs, p2p::protocols::kAutonat);
  // 2'481 kad flappers / 68'396 events; 3'603 autonat / 86'651 — both
  // populations flap many times per peer.
  EXPECT_GT(kad_flaps.peers, 20u);
  EXPECT_GT(kad_flaps.events, 5 * kad_flaps.peers);
  EXPECT_GT(autonat_flaps.peers, kad_flaps.peers / 2);
  EXPECT_GT(autonat_flaps.events, 5 * autonat_flaps.peers);
}

TEST(CampaignShapes, SimultaneousConnectionsPlateau_Fig5) {
  const auto series = analysis::simultaneous_connections(
      *p4_result().go_ipfs, 10 * common::kMinute, 24 * kHour);
  const auto summary = analysis::summarize_series(series);
  // P4-style run: simultaneous connections stay well below the total PID
  // count (the §V observation motivating the size estimators).
  EXPECT_GT(summary.peak, 100u);
  EXPECT_LT(summary.peak, p4_result().go_ipfs->peer_count() / 2);
  // Plateau: the second half of the day stays within 2x of the mean.
  EXPECT_LT(static_cast<double>(summary.peak), 2.5 * summary.mean + 50.0);
}

TEST(CampaignShapes, PidsKeepGrowing_Fig6) {
  const auto growth =
      analysis::pid_growth(*p4_result().go_ipfs, 2 * kHour, 12 * kHour);
  ASSERT_GT(growth.all_pids.size(), 4u);
  const auto quarter = growth.all_pids[growth.all_pids.size() / 4].count;
  const auto full = growth.all_pids.back().count;
  // Total PIDs grow throughout (one-time arrivals), while connected PIDs
  // plateau far below.
  EXPECT_GT(full, quarter + quarter / 4);
  const auto connected_final = growth.connected_pids.back().count;
  EXPECT_LT(connected_final, full / 2);
  // Gone-PIDs series becomes non-zero once the gone-window passes.
  EXPECT_GT(growth.gone_pids.back().count, 0u);
}

TEST(CampaignShapes, CrawlerSeesFewerThanPassive_Fig2) {
  const auto& result = p4_result();
  const auto [crawl_min, crawl_max] = result.crawler_min_max();
  // §III-C: for periods over 1 day, the passive node's historic snapshot
  // accumulates more PIDs than any single crawl reaches.
  EXPECT_GT(result.go_ipfs->peer_count(), crawl_max);
  EXPECT_GT(crawl_min, 0u);
}

}  // namespace
}  // namespace ipfs
