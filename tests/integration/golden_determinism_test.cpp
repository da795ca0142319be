// Golden determinism pins for the condition-model and session-churn
// subsystems.
//
// 1. Scenarios *without* a `"network"` or `"churn"` section must produce
//    campaign exports byte-identical to the pre-subsystem code (the hashes
//    below were recorded at the commits immediately before
//    `net::ConditionModel` / `scenario::ChurnModel` landed).  If one of
//    these ever changes, the legacy path drifted — that is a determinism
//    regression, not a constant to refresh.
// 2. An engaged-but-default network section must match an absent one
//    exactly.
// 3. Conditioned and churned scenarios must stay byte-identical across
//    worker counts through `runtime::ParallelTrialRunner`, and the churned
//    export itself is hash-pinned.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "measure/sink.hpp"
#include "runtime/parallel.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"
#include "testing/campaign.hpp"

namespace ipfs::scenario {
namespace {

using testing::run_builtin;
using testing::run_to_json;

constexpr double kScale = 0.002;  // the CI smoke scale; minutes -> seconds

TEST(GoldenDeterminism, CampaignExportsMatchPreConditionsHashes) {
  // FNV-1a (common::hash64) of the JSON export of each Table I period at
  // scale 0.002, default seed, recorded at HEAD before this subsystem.
  const struct {
    const char* name;
    std::uint64_t hash;
  } goldens[] = {
      {"p0", 0x78a4ac5991ecde93ULL}, {"p1", 0x6d91f304d5fac5e6ULL},
      {"p2", 0x6d91f304d5fac5e6ULL},  // P1 == P2 here: neither trims at 0.2%
      {"p3", 0x2cebfb16114cf92fULL}, {"p4", 0xcf1669de66317e98ULL},
  };
  for (const auto& golden : goldens) {
    const std::string exported = run_builtin(golden.name, kScale);
    ASSERT_FALSE(exported.empty()) << golden.name;
    EXPECT_EQ(common::hash64(exported), golden.hash)
        << golden.name
        << ": campaign export drifted from the pre-conditions baseline";
  }
}

TEST(GoldenDeterminism, DefaultNetworkSectionMatchesAbsentSection) {
  // Engaging the section with all-default conditions must not move a
  // single byte: every gate is neutral and no RNG branch shifts.
  ScenarioSpec plain = *ScenarioSpec::builtin("p4");
  plain.population.scale = kScale;
  ScenarioSpec conditioned = plain;
  conditioned.network.emplace();  // default ConditionSpec

  EXPECT_EQ(run_to_json(conditioned.to_campaign_config()),
            run_to_json(plain.to_campaign_config()));
}

TEST(GoldenDeterminism, ConditionedScenarioActuallyChangesOutput) {
  // Sanity for the whole subsystem: flaky-links with its section stripped
  // must differ from the real thing (otherwise the gates are dead code).
  ScenarioSpec spec = *ScenarioSpec::builtin("flaky-links");
  spec.population.scale = kScale;
  ScenarioSpec stripped = spec;
  stripped.network.reset();
  EXPECT_NE(run_to_json(spec.to_campaign_config()),
            run_to_json(stripped.to_campaign_config()));
}

TEST(GoldenDeterminism, GeoZonesLatencyMatrixIsLiveInCampaigns) {
  // The zone matrix must reach the campaign's duration data (query
  // connections stretch by RTT): moving the default link by seconds has
  // to move the export, or the geography would be dead configuration.
  ScenarioSpec spec = *ScenarioSpec::builtin("geo-zones");
  spec.population.scale = kScale;
  ScenarioSpec slow = spec;
  slow.network->default_link = {.min_one_way = 8000, .max_one_way = 9000};
  slow.network->links.clear();
  EXPECT_NE(run_to_json(spec.to_campaign_config()),
            run_to_json(slow.to_campaign_config()));
}

TEST(GoldenDeterminism, ChurnedScenarioActuallyChangesOutput) {
  // Sanity for the churn subsystem: churn-baseline with its section
  // stripped must differ from the real thing (otherwise the lifecycle
  // engine is dead code).
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = kScale;
  ScenarioSpec stripped = spec;
  stripped.churn.reset();
  EXPECT_NE(run_to_json(spec.to_campaign_config()),
            run_to_json(stripped.to_campaign_config()));
}

TEST(GoldenDeterminism, ChurnedExportMatchesPinnedHash) {
  // FNV-1a (common::hash64) of the churn-baseline export at scale 0.002,
  // default seed — the vantage dataset plus the trailing
  // population_samples document — recorded when scenario::ChurnModel
  // landed.  The churned lifecycle is pure per (peer, session, seed), so
  // this must never move — across worker counts or rebuilds.
  const std::string exported = run_builtin("churn-baseline", kScale);
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(common::hash64(exported), 0x99fa022fd1bc8a95ULL)
      << "churn-baseline: churned campaign export drifted from its pin";
}

TEST(GoldenDeterminism, ChurnedSweepByteIdenticalAcrossWorkerCounts) {
  // The export bytes include the per-trial population_samples documents,
  // so the ground-truth stream is inside the invariance guarantee.
  ScenarioSpec spec = *ScenarioSpec::builtin("churn-baseline");
  spec.population.scale = kScale;
  spec.campaign.trials = 3;
  testing::expect_sweep_worker_invariant(spec);
}

TEST(GoldenDeterminism, GeoZonesSweepByteIdenticalAcrossWorkerCounts) {
  ScenarioSpec spec = *ScenarioSpec::builtin("geo-zones");
  spec.population.scale = kScale;
  spec.campaign.trials = 3;
  testing::expect_sweep_worker_invariant(spec);
}

TEST(GoldenDeterminism, ContentScenarioActuallyChangesOutput) {
  // Sanity for the content subsystem: content-baseline with its section
  // stripped must differ from the real thing (otherwise the workload
  // engine is dead code).
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.population.scale = kScale;
  ScenarioSpec stripped = spec;
  stripped.content.reset();
  EXPECT_NE(run_to_json(spec.to_campaign_config()),
            run_to_json(stripped.to_campaign_config()));
}

TEST(GoldenDeterminism, ContentExportMatchesPinnedHash) {
  // FNV-1a (common::hash64) of the content-baseline export at scale 0.002,
  // default seed — vantage dataset plus population/provide/fetch/content
  // sample documents — recorded when scenario::ContentModel landed.  Every
  // content draw is pure per (node, slot/fetch, cycle, seed), so this must
  // never move — across worker counts or rebuilds.
  const std::string exported = run_builtin("content-baseline", kScale);
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(common::hash64(exported), 0xf4be5116cf725575ULL)
      << "content-baseline: content campaign export drifted from its pin";
}

TEST(GoldenDeterminism, ContentSweepByteIdenticalAcrossWorkerCounts) {
  ScenarioSpec spec = *ScenarioSpec::builtin("flash-fetch");
  spec.population.scale = kScale;
  spec.campaign.trials = 3;
  testing::expect_sweep_worker_invariant(spec);
}

/// content-baseline with churn-baseline's churn section grafted on: every
/// subsystem that schedules events — lifecycle sessions, publish/republish
/// cycles, fetch traffic, vantage probes — is live at once, the densest
/// tie-breaking load the scheduler sees in tests.
ScenarioSpec combined_churn_content_spec() {
  ScenarioSpec spec = *ScenarioSpec::builtin("content-baseline");
  spec.churn = ScenarioSpec::builtin("churn-baseline")->churn;
  spec.population.scale = kScale;
  return spec;
}

TEST(GoldenDeterminism, CombinedChurnContentExportMatchesPinnedHash) {
  // FNV-1a (common::hash64) of the combined churn+content export at scale
  // 0.002, default seed — recorded on the binary-heap scheduler immediately
  // before the ladder-queue engine replaced it (DESIGN.md §12).  The pin
  // holding across that swap is the event-ordering contract in one number:
  // any deviation in pop order under combined load moves these bytes.
  const std::string exported =
      testing::run_to_json(combined_churn_content_spec().to_campaign_config());
  ASSERT_FALSE(exported.empty());
  EXPECT_EQ(common::hash64(exported), 0x2a17c5a9a02a54a6ULL)
      << "combined churn+content export drifted from its pre-ladder-queue pin";
}

TEST(GoldenDeterminism, CombinedChurnContentSweepPinnedAndWorkerInvariant) {
  // Three-trial sweep of the combined scenario: byte-identical at 1, 2 and
  // 4 workers, and the worker-1 bytes themselves are pinned (recorded on
  // the pre-ladder-queue scheduler, like the single-run pin above).
  ScenarioSpec spec = combined_churn_content_spec();
  spec.campaign.trials = 3;
  const std::string baseline = testing::run_sweep_bytes(spec, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(common::hash64(baseline), 0x67d1f01113ac2afbULL)
      << "combined churn+content sweep drifted from its pre-ladder-queue pin";
  for (const std::uint32_t workers : {2u, 4u}) {
    EXPECT_EQ(testing::run_sweep_bytes(spec, workers), baseline)
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace ipfs::scenario
