// Parallel multi-trial campaign runner (DESIGN.md §7).
//
// A measurement campaign is rarely one run: parameter sweeps and seed
// sweeps execute many *independent* (seed, config) cells.  The sequential
// `scenario::CampaignEngine` is single-threaded by design (one virtual
// clock), but distinct engines share no mutable state, so independent
// cells can run on as many cores as the hardware offers.
//
// `ParallelTrialRunner` executes each trial on a worker thread with its
// own `CampaignEngine` (own Simulation, own RNG tree) publishing into a
// per-trial `measure::ReplaySink`.  Once every trial has finished, the
// buffered streams are replayed into the caller's sink in *trial order* —
// the merged output is bit-identical to a sequential
// `for (trial : trials) engine.run(sink)` loop, regardless of worker
// count or completion order.  See DESIGN.md §7 for the determinism
// contract.
#pragma once

#include <cstdint>
#include <expected>
#include <span>
#include <string>
#include <vector>

#include "measure/sink.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::runtime {

/// One campaign cell of a sweep.
struct TrialSpec {
  /// Label carried into outputs and error messages ("P4 seed=3", …).
  std::string name;
  scenario::CampaignConfig config;
};

/// Outcome of one trial in the collecting (monolithic) API.
struct TrialResult {
  std::string name;
  std::uint64_t seed = 0;
  scenario::CampaignResult result;
};

/// Thread-pool runner for independent campaign trials.
class ParallelTrialRunner {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency().
    /// Always clamped to [1, trial count].
    unsigned workers = 0;
  };

  ParallelTrialRunner() = default;
  explicit ParallelTrialRunner(Options options) : options_(options) {}

  /// Seed-sweep helper: one trial per seed, all other knobs from `base`.
  [[nodiscard]] static std::vector<TrialSpec> seed_sweep(
      scenario::CampaignConfig base, std::span<const std::uint64_t> seeds);

  /// Validate every spec upfront.  Returns the first offending trial's
  /// name and reason, or nullopt when all are runnable.  `run` refuses a
  /// batch containing any invalid cell so a sweep never partially runs.
  [[nodiscard]] static std::optional<std::string> validate(
      const std::vector<TrialSpec>& trials);

  /// Run all trials concurrently, then replay each trial's full event
  /// stream into `sink` in trial order (bit-identical to the sequential
  /// loop).  Returns the validation error when any spec is invalid, in
  /// which case nothing runs.
  std::expected<void, std::string> run(std::vector<TrialSpec> trials,
                                       measure::MeasurementSink& sink);

  /// Collecting variant: monolithic per-trial results, in trial order.
  [[nodiscard]] std::expected<std::vector<TrialResult>, std::string> run(
      std::vector<TrialSpec> trials);

  /// The worker count `run` uses for `trial_count` trials: the explicit
  /// count, or hardware concurrency when auto (0), clamped to
  /// [1, trial count].  One trial runs on one core (DESIGN.md §13), so
  /// this is the whole of the runner's parallelism.
  [[nodiscard]] unsigned resolve_workers(std::size_t trial_count) const noexcept;

 private:
  Options options_{};
};

}  // namespace ipfs::runtime
