#include "runtime/parallel.hpp"

#include <atomic>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace ipfs::runtime {

namespace {

/// Run `work(i)` for every i in [0, task_count) across `workers` threads.
/// Tasks are claimed from an atomic counter, so completion order is
/// nondeterministic — callers must only depend on per-task results, which
/// is exactly why trials buffer into per-trial sinks.  The first exception
/// thrown by any task is rethrown on the calling thread after all workers
/// have joined.
void run_pool(std::size_t task_count, unsigned workers,
              const std::function<void(std::size_t)>& work) {
  if (task_count == 0) return;
  if (workers <= 1) {
    for (std::size_t i = 0; i < task_count; ++i) work(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(task_count);
  auto worker_loop = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= task_count) return;
      try {
        work(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
  for (std::thread& thread : pool) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// Build the engine for one already-validated trial.  validate() ran
/// upfront, so create() cannot fail today; the throw guards against the
/// two ever diverging (run_pool rethrows it on the calling thread).
scenario::CampaignEngine make_engine(const TrialSpec& trial) {
  auto engine = scenario::CampaignEngine::create(trial.config);
  if (!engine) {
    throw std::runtime_error("trial '" + trial.name + "': " + engine.error());
  }
  return std::move(*engine);
}

}  // namespace

std::vector<TrialSpec> ParallelTrialRunner::seed_sweep(
    scenario::CampaignConfig base, std::span<const std::uint64_t> seeds) {
  std::vector<TrialSpec> trials;
  trials.reserve(seeds.size());
  for (const std::uint64_t seed : seeds) {
    TrialSpec trial;
    trial.name = base.period.name + " seed=" + std::to_string(seed);
    trial.config = base;
    trial.config.seed = seed;
    trials.push_back(std::move(trial));
  }
  return trials;
}

std::optional<std::string> ParallelTrialRunner::validate(
    const std::vector<TrialSpec>& trials) {
  for (const TrialSpec& trial : trials) {
    if (auto error = scenario::CampaignEngine::validate(trial.config)) {
      return "trial '" + trial.name + "': " + *error;
    }
  }
  return std::nullopt;
}

unsigned ParallelTrialRunner::resolve_workers(std::size_t trial_count) const noexcept {
  unsigned workers = options_.workers;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;  // hardware_concurrency may be unknown
  if (trial_count < workers) workers = static_cast<unsigned>(trial_count);
  return workers == 0 ? 1 : workers;
}

std::expected<void, std::string> ParallelTrialRunner::run(
    std::vector<TrialSpec> trials, measure::MeasurementSink& sink) {
  if (auto error = validate(trials)) return std::unexpected(std::move(*error));

  // One buffering sink per trial; workers never touch the caller's sink.
  std::vector<measure::ReplaySink> buffers(trials.size());
  run_pool(trials.size(), resolve_workers(trials.size()),
           [&](std::size_t i) { make_engine(trials[i]).run(buffers[i]); });

  // Ordered merge: trial 0's complete stream, then trial 1's, … — the same
  // byte stream a sequential loop over `trials` would have produced.
  for (measure::ReplaySink& buffer : buffers) buffer.replay(sink);
  return {};
}

std::expected<std::vector<TrialResult>, std::string> ParallelTrialRunner::run(
    std::vector<TrialSpec> trials) {
  if (auto error = validate(trials)) return std::unexpected(std::move(*error));

  std::vector<TrialResult> results(trials.size());
  run_pool(trials.size(), resolve_workers(trials.size()),
           [&](std::size_t i) {
             scenario::CampaignResultSink collector;
             make_engine(trials[i]).run(collector);
             results[i].name = trials[i].name;
             results[i].seed = trials[i].config.seed;
             results[i].result = collector.take_result();
           });
  return results;
}

}  // namespace ipfs::runtime
