// Campaign engine: runs one measurement period (Table I) of the synthetic
// network against the vantage nodes and streams their observations.
//
// This is the "campaign fidelity" mode of DESIGN.md §2: remote peers are
// population processes that interact *only* with the vantage swarms (whose
// connection managers, peerstores and recorders are the real
// implementations from p2p/ and measure/).  Remote-to-remote traffic is not
// simulated — the paper's dataset never contains it either.
//
// Engines are obtained through the config-validating factory
// `CampaignEngine::create` and publish through a `measure::MeasurementSink`
// (crawl snapshots as they happen, per-vantage datasets at the end).  The
// monolithic `CampaignResult` of the original API is rebuilt by
// `CampaignResultSink`, which `run()` uses as a compatibility adapter.
//
// Configs come from C++ directly or from a declarative JSON scenario:
// `scenario::ScenarioSpec::to_campaign_config()` (scenario_spec.hpp) is
// how the `ipfs_sim` CLI assembles engines from `scenarios/*.json` files,
// and `runtime::ParallelTrialRunner` fans seed sweeps of one config across
// cores.
#pragma once

#include <expected>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "measure/recorder.hpp"
#include "measure/sink.hpp"
#include "net/conditions.hpp"
#include "scenario/churn.hpp"
#include "scenario/content.hpp"
#include "scenario/period.hpp"
#include "scenario/phases.hpp"
#include "scenario/population.hpp"
#include "sim/simulation.hpp"

namespace ipfs::scenario {

/// One active-crawler snapshot (the Fig. 2 baseline).
using CrawlSnapshot = measure::CrawlObservation;

/// Campaign configuration.
struct CampaignConfig {
  PeriodSpec period = PeriodSpec::P4();
  PopulationSpec population = PopulationSpec::paper_scale();
  std::uint64_t seed = 20211203;

  /// Probability that a given remote peer's DHT position brings it into
  /// contact with a given vantage identity at all (§III-C's horizon).
  double vantage_visibility = 0.93;

  bool enable_crawler = true;
  common::SimDuration crawl_interval = 8 * common::kHour;

  /// §IV-B dynamics: version changes and kad/autonat flapping.
  bool enable_metadata_dynamics = true;

  /// Outbound dial rate of a DHT-client vantage (P3's behaviour), per hour.
  double client_dials_per_hour = 1980.0;

  /// Optional network-condition model (net/conditions.hpp, DESIGN.md §9):
  /// zones, dial-failure/loss, NAT reachability classes and scheduled
  /// disturbances.  Engaged, it gates remote->vantage contact attempts,
  /// vantage->remote dials and active-crawl reachability through pure
  /// hash verdicts seeded from `seed`.  nullopt leaves the engine's
  /// behaviour bit-for-bit identical to the pre-conditions code path
  /// (enforced by tests/integration/golden_determinism_test.cpp).
  std::optional<net::ConditionSpec> conditions;

  /// Optional session-level churn model (scenario/churn.hpp, DESIGN.md
  /// §10): per-category session/intersession distributions plus diurnal
  /// modulation, driving first-class join/leave events for *every*
  /// category.  Engaged, it replaces the static per-category session
  /// machinery — peers genuinely arrive and depart on the simulation
  /// clock, and the engine publishes `measure::PopulationSample`s (the
  /// observed-vs-true baseline).  nullopt leaves the engine's behaviour
  /// bit-for-bit identical to the pre-churn code path (hash-pinned by
  /// tests/integration/golden_determinism_test.cpp).
  std::optional<ChurnSpec> churn;

  /// Optional content-routing workload (scenario/content.hpp, DESIGN.md
  /// §11): publish → provide → republish → expire chains driving
  /// `dht::RecordStore`s at the server vantages, plus live Bitswap
  /// want/block fetch traffic over a dedicated message-level network.
  /// Engaged, the engine publishes `measure::ProvideSample` /
  /// `FetchSample` / `ContentSample` streams (records-at-vantage vs
  /// ground truth).  nullopt leaves the engine's behaviour bit-for-bit
  /// identical to the pre-content code path (hash-pinned by
  /// tests/integration/golden_determinism_test.cpp).
  std::optional<ContentSpec> content;

  /// Optional time-varying workload program (scenario/phases.hpp,
  /// DESIGN.md §14): piecewise rate multipliers — ramps, bursts, flash
  /// crowds — folded into the engine's per-draw sampling sites.  Every
  /// modulated draw stays a pure function of (node, index, phase, seed),
  /// so sweeps remain byte-identical at any worker count.  nullopt leaves every rate constant: behaviour is
  /// bit-for-bit identical to the pre-phases code path (hash-pinned by
  /// tests/integration/golden_determinism_test.cpp).
  std::optional<PhaseProgramSpec> phases;
};

/// Datasets and baselines produced by a campaign run (the all-in-memory
/// compatibility shape; streaming consumers implement MeasurementSink).
struct CampaignResult {
  std::optional<measure::Dataset> go_ipfs;
  std::vector<measure::Dataset> hydra_heads;
  std::optional<measure::Dataset> hydra_union;
  std::vector<CrawlSnapshot> crawls;
  /// True-population samples (churned campaigns only; empty otherwise).
  std::vector<measure::PopulationSample> population_samples;
  /// Content-workload streams (content-enabled campaigns only).
  std::vector<measure::ProvideSample> provide_samples;
  std::vector<measure::FetchSample> fetch_samples;
  std::vector<measure::ContentSample> content_samples;

  std::size_t population_size = 0;
  std::size_t events_executed = 0;

  /// Crawler min/max of reached servers across snapshots (Fig. 2 band).
  [[nodiscard]] std::pair<std::size_t, std::size_t> crawler_min_max() const;
};

/// Compatibility adapter: rebuilds the monolithic `CampaignResult` from the
/// sink event stream.
class CampaignResultSink final : public measure::MeasurementSink {
 public:
  void on_crawl(const measure::CrawlObservation& crawl) override;
  void on_population(const measure::PopulationSample& sample) override;
  void on_provide(const measure::ProvideSample& sample) override;
  void on_fetch(const measure::FetchSample& sample) override;
  void on_content(const measure::ContentSample& sample) override;
  void on_dataset(measure::DatasetRole role, measure::Dataset dataset) override;
  void on_run_end(const measure::RunSummary& summary) override;

  [[nodiscard]] CampaignResult take_result() { return std::move(result_); }

 private:
  CampaignResult result_;
};

/// Runs one campaign.  Use a fresh engine per run.
///
/// Engines are thread-confined (one virtual clock, one RNG tree — no
/// internal locking) but fully independent of each other: running
/// distinct engines on distinct threads is safe and deterministic, which
/// is how `runtime::ParallelTrialRunner` executes sweeps (DESIGN.md §7).
class CampaignEngine {
 public:
  /// Why `config` cannot run, or nullopt when it is valid.
  [[nodiscard]] static std::optional<std::string> validate(
      const CampaignConfig& config);

  /// Config-validating factory — the only way to obtain an engine.
  [[nodiscard]] static std::expected<CampaignEngine, std::string> create(
      CampaignConfig config);

  CampaignEngine(CampaignEngine&&) noexcept;
  CampaignEngine& operator=(CampaignEngine&&) noexcept;
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;
  ~CampaignEngine();

  /// Execute the full period, streaming observations into `sink`.
  void run(measure::MeasurementSink& sink);

  /// Execute the full period and collect the monolithic result (adapter
  /// over `run(sink)` via CampaignResultSink).
  [[nodiscard]] CampaignResult run();

  /// The simulation clock (exposed for tests that step manually).
  [[nodiscard]] sim::Simulation& simulation();

 private:
  explicit CampaignEngine(CampaignConfig config);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ipfs::scenario
