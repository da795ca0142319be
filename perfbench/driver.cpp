// perfbench_driver — one run of the end-to-end campaign benchmark.
//
// Drives ipfs_core through its public entry points, exactly as a user of
// `ipfs_sim run` / `ipfs_sim calibrate` would, and prints ONE line of JSON
// with the run's timings, counts, export hash and peak RSS.  run.py (this
// directory) spawns one process per measured run, so the peak RSS it
// reads back is that run's own.
//
//   perfbench_driver campaign --scenario NAME --scale X [--duration S]
//                             --seed N [--trace]
//   perfbench_driver calibrate --input TRACE [--trace]
//   perfbench_driver gen-trace --seed N --scale X --out TRACE
//   perfbench_driver hash-file FILE...
//   perfbench_driver info
//
// `campaign` times ScenarioSpec load/validate, CampaignEngine::create,
// CampaignEngine::run into a JsonExportSink that writes to a counting,
// hashing stream (serialization cost without disk), engine teardown, and
// the analysis::* calls behind the paper's tables.  The analysis runs on
// each dataset as it is published, before the dataset moves on to the
// export sink; its time is measured and taken out of `wall_s`.
//
// `--trace` additionally wraps the sinks in a forwarding sink that
// timestamps every callback and reads the engine's simulation clock, which
// splits the run into per-layer spans.  Spans are timed from outside the
// library only: nothing inside ipfs_core is instrumented.
//
// `calibrate` times reading a trace and analysis::calibrate::run over it
// (default options, closed loop on).  Traced, the pipeline is split into
// its public stages: parse_trace, the fits (run without the closed loop)
// and the closed loop re-run through the traced campaign path.
//
// `gen-trace` writes the calibration input: a churned one-day P2 export of
// the go-ipfs vantage with its connection log (the recipe of
// examples/passive_measurement with --connections --churn).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/calibration.hpp"
#include "analysis/churn_stats.hpp"
#include "analysis/classification.hpp"
#include "analysis/connection_stats.hpp"
#include "analysis/size_estimation.hpp"
#include "common/parse.hpp"
#include "measure/sink.hpp"
#include "scenario/campaign.hpp"
#include "scenario/scenario_spec.hpp"

namespace {

using namespace ipfs;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- output -----------------------------------------------------------------

/// The flat `{"name": value, ...}` line a run prints, in insertion order.
class Report {
 public:
  void put(std::string name, double value) { fields_.emplace_back(std::move(name), value); }
  void put(std::string name, std::uint64_t value) {
    fields_.emplace_back(std::move(name), value);
  }
  void put(std::string name, std::string value) {
    fields_.emplace_back(std::move(name), std::move(value));
  }

  void print(std::ostream& out) const {
    out << '{';
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out << ", ";
      out << '"' << fields_[i].first << "\": ";
      std::visit([&out](const auto& v) { write(out, v); }, fields_[i].second);
    }
    out << "}\n";
  }

 private:
  static void write(std::ostream& out, double v) {
    char text[64];
    const auto end = std::to_chars(text, text + sizeof text, v).ptr;
    out.write(text, end - text);
  }
  static void write(std::ostream& out, std::uint64_t v) { out << v; }
  static void write(std::ostream& out, const std::string& v) { out << '"' << v << '"'; }

  std::vector<std::pair<std::string, std::variant<double, std::uint64_t, std::string>>>
      fields_;
};

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is KiB
}

// ---- hashing ----------------------------------------------------------------

/// 64-bit hash of a byte stream, independent of how the stream is chunked:
/// bytes are consumed as little-endian 8-byte words at fixed stream
/// offsets, the tail and the total length are folded in at the end.
class StreamHash {
 public:
  void update(const char* data, std::size_t size) {
    length_ += size;
    if (carried_ > 0) {  // complete the word the last update left open
      const std::size_t take = std::min(8 - carried_, size);
      std::memcpy(carry_ + carried_, data, take);
      carried_ += take;
      data += take;
      size -= take;
      if (carried_ < 8) return;
      mix(load(carry_));
      carried_ = 0;
    }
    for (; size >= 8; data += 8, size -= 8) mix(load(data));
    std::memcpy(carry_, data, size);
    carried_ = size;
  }

  [[nodiscard]] std::uint64_t digest() const {
    char tail[8] = {};
    std::memcpy(tail, carry_, carried_);
    std::uint64_t h = state_ ^ (load(tail) * kMul1);
    h ^= length_;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
  }

  [[nodiscard]] std::uint64_t length() const noexcept { return length_; }

 private:
  static constexpr std::uint64_t kMul1 = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kMul2 = 0xC2B2AE3D27D4EB4FULL;

  static std::uint64_t load(const char* p) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    return w;
  }
  void mix(std::uint64_t w) { state_ = std::rotl(state_ ^ (w * kMul1), 31) * kMul2; }

  std::uint64_t state_ = 0x243F6A8885A308D3ULL;
  std::uint64_t length_ = 0;
  char carry_[8] = {};
  std::size_t carried_ = 0;
};

std::string hex(std::uint64_t value) {
  char text[17];
  const auto end = std::to_chars(text, text + 16, value, 16).ptr;
  return std::string(16 - (end - text), '0') + std::string(text, end);
}

/// Discards what is written to it, counting and hashing the bytes.
class HashingBuf final : public std::streambuf {
 public:
  HashingBuf() : buffer_(1 << 20) { reset(); }

  [[nodiscard]] const StreamHash& hash() {
    drain();
    return hash_;
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void reset() { setp(buffer_.data(), buffer_.data() + buffer_.size()); }
  void drain() {
    hash_.update(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    reset();
  }

  std::vector<char> buffer_;
  StreamHash hash_;
};

/// Folds the analysis results into one value, so repeated runs of one seed
/// can be checked for identical tables.
class Digest {
 public:
  void add(std::uint64_t v) {
    hash_.update(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string str() const { return hex(hash_.digest()); }

 private:
  StreamHash hash_;
};

// ---- analysis ---------------------------------------------------------------

template <typename F>
auto timed(double& into, F&& call) {
  const auto start = Clock::now();
  auto result = call();
  into += seconds_between(start, Clock::now());
  return result;
}

/// The analysis::* calls behind the paper's tables, each timed on its own.
///
/// Each call runs twice and the second run is timed.  The first absorbs
/// glibc's deferred consolidation of the memory freed just before it (the
/// previous dataset, released by the export sink): work of neither layer,
/// which measured 10-60 ms on p1_day depending on the seed alone.
struct Analysis {
  double connection_stats_s = 0;
  double churn_stats_s = 0;
  double size_estimate_s = 0;
  double classify_s = 0;
  std::uint64_t sessions = 0;
  std::uint64_t trim_closes = 0;
  Digest digest;

  [[nodiscard]] double total_s() const {
    return connection_stats_s + churn_stats_s + size_estimate_s + classify_s;
  }

  template <typename F>
  static auto warm_timed(double& into, F&& call) {
    (void)call();
    return timed(into, call);
  }

  /// Table II for any vantage (hydra heads and union included).
  void connection_table(const measure::Dataset& dataset) {
    const auto stats = warm_timed(connection_stats_s,
                                  [&] { return analysis::compute_connection_stats(dataset); });
    digest.add(stats.all.count);
    digest.add(stats.all.average_s);
    digest.add(stats.peer.median_s);
  }

  /// Every table of the primary vantage: Table II with close reasons,
  /// Fig. 7 sessions (against the ground truth when the run has one),
  /// the §V size estimate, and Table IV with its CDFs.
  void primary(const measure::Dataset& dataset,
               const std::vector<measure::PopulationSample>& truth) {
    connection_table(dataset);
    const auto reasons = warm_timed(connection_stats_s,
                                    [&] { return analysis::compute_close_reasons(dataset); });
    trim_closes = reasons.local_trim;
    digest.add(reasons.total());

    const auto [churn, observed] = warm_timed(churn_stats_s, [&] {
      const auto traces = analysis::reconstruct_sessions(dataset);
      const auto aligned = analysis::observed_vs_true(traces, truth);
      return std::pair(analysis::compute_churn_stats(traces),
                       std::uint64_t{aligned.empty() ? 0 : aligned.back().observed});
    });
    digest.add(observed);
    sessions = churn.session_count;
    digest.add(churn.session_count);
    digest.add(churn.mean_session_s);

    const auto size =
        warm_timed(size_estimate_s, [&] { return analysis::estimate_network_size(dataset); });
    digest.add(size.estimated_peers_by_ip);
    digest.add(size.core_network_lower_bound);

    const auto classes =
        warm_timed(classify_s, [&] { return analysis::classify_peers(dataset); });
    const auto cdfs =
        warm_timed(classify_s, [&] { return analysis::connection_cdfs(dataset); });
    for (const std::uint64_t count : classes.peers) digest.add(count);
    digest.add(static_cast<std::uint64_t>(cdfs.max_duration_s.size()));
  }

  void put(Report& report) const {
    report.put("analysis_s", total_s());
    report.put("analysis.connection_stats_s", connection_stats_s);
    report.put("analysis.churn_stats_s", churn_stats_s);
    report.put("analysis.size_estimate_s", size_estimate_s);
    report.put("analysis.classify_s", classify_s);
    report.put("analysis.sessions", sessions);
    report.put("analysis_digest", digest.str());
  }
};

/// Max concurrently open connections, swept from a dataset's ConnRecords.
std::uint64_t open_peak(const measure::Dataset& dataset) {
  std::vector<std::pair<common::SimTime, int>> edges;
  edges.reserve(2 * dataset.connection_count());
  for (const measure::ConnRecord& conn : dataset.connections()) {
    edges.emplace_back(conn.opened, +1);
    edges.emplace_back(conn.closed, -1);
  }
  std::sort(edges.begin(), edges.end());  // a close sorts before an open at one instant
  std::int64_t open = 0;
  std::int64_t peak = 0;
  for (const auto& edge : edges) peak = std::max(peak, open += edge.second);
  return static_cast<std::uint64_t>(peak);
}

// ---- sinks ------------------------------------------------------------------

/// The consumer side of a campaign: counts the sample streams, runs the
/// analysis on each dataset as it is published, then hands everything on
/// to `next` (the export sink).  Time spent analysing or sweeping is
/// accumulated in `excluded_s` so the caller can keep it out of `wall_s`.
class PipelineSink final : public measure::MeasurementSink {
 public:
  explicit PipelineSink(measure::MeasurementSink& next) : next_(next) {}

  void on_run_begin(const std::string& description) override {
    next_.on_run_begin(description);
  }
  void on_crawl(const measure::CrawlObservation& crawl) override { next_.on_crawl(crawl); }
  void on_population(const measure::PopulationSample& sample) override {
    truth_.push_back(sample);
    next_.on_population(sample);
  }
  void on_provide(const measure::ProvideSample& sample) override {
    ++provides;
    next_.on_provide(sample);
  }
  void on_fetch(const measure::FetchSample& sample) override {
    ++fetches;
    next_.on_fetch(sample);
  }
  void on_content(const measure::ContentSample& sample) override {
    next_.on_content(sample);
  }
  void on_dataset(measure::DatasetRole role, measure::Dataset dataset) override {
    const auto start = Clock::now();
    if (role == measure::DatasetRole::kVantage) {
      analysis.primary(dataset, truth_);
      peak = open_peak(dataset);
      peers = dataset.peer_count();
      connections = dataset.connection_count();
    } else {
      analysis.connection_table(dataset);
    }
    excluded_s += seconds_between(start, Clock::now());
    next_.on_dataset(role, std::move(dataset));
  }
  void on_run_end(const measure::RunSummary& summary) override {
    population = summary.population_size;
    events = summary.events_executed;
    next_.on_run_end(summary);
  }

  [[nodiscard]] std::uint64_t population_samples() const { return truth_.size(); }

  Analysis analysis;
  double excluded_s = 0;  ///< analysis + open-peak sweep, inside on_dataset
  std::uint64_t provides = 0;
  std::uint64_t fetches = 0;
  std::uint64_t population = 0;
  std::uint64_t events = 0;
  std::uint64_t peak = 0;
  std::uint64_t peers = 0;
  std::uint64_t connections = 0;

 private:
  measure::MeasurementSink& next_;
  std::vector<measure::PopulationSample> truth_;
};

/// Timestamps every callback on its way to `next` and reads the engine's
/// simulation clock there.  From those stamps: the event-loop span (run
/// begin to first dataset, sink time excluded), the time spent inside the
/// sinks, the merge gap after the primary dataset, wall time per simulated
/// hour between sample callbacks, and the sampled pending-event peak.
class TracingSink final : public measure::MeasurementSink {
 public:
  TracingSink(measure::MeasurementSink& next, sim::Simulation& simulation)
      : next_(next), simulation_(simulation) {}

  void on_run_begin(const std::string& description) override {
    enter(false);
    next_.on_run_begin(description);
    leave();
    loop_start_ = last_exit_;
    marks_.push_back({0, 0.0});
  }
  void on_crawl(const measure::CrawlObservation& crawl) override {
    enter(true);
    next_.on_crawl(crawl);
    leave();
  }
  void on_population(const measure::PopulationSample& sample) override {
    enter(true);
    next_.on_population(sample);
    leave();
  }
  void on_provide(const measure::ProvideSample& sample) override {
    enter(false);
    next_.on_provide(sample);
    leave();
  }
  void on_fetch(const measure::FetchSample& sample) override {
    enter(false);
    next_.on_fetch(sample);
    leave();
  }
  void on_content(const measure::ContentSample& sample) override {
    enter(true);
    next_.on_content(sample);
    leave();
  }
  void on_dataset(measure::DatasetRole role, measure::Dataset dataset) override {
    const auto now = enter(false);
    if (!loop_end_) {
      loop_end_ = now;
      loop_sink_s_ = sink_s;
      mark(now);
    }
    close_merge_gap(now);
    next_.on_dataset(role, std::move(dataset));
    leave();
    if (role == measure::DatasetRole::kVantage) merge_from_ = last_exit_;
  }
  void on_run_end(const measure::RunSummary& summary) override {
    close_merge_gap(enter(false));
    next_.on_run_end(summary);
    leave();
  }

  /// Event-loop span: run begin to first dataset, sink time excluded.
  [[nodiscard]] double loop_s() const {
    return loop_end_ ? seconds_between(*loop_start_, *loop_end_) - loop_sink_s_ : 0.0;
  }

  /// Wall seconds per simulated hour over each stretch between sample
  /// callbacks (sink time excluded).
  [[nodiscard]] std::vector<double> sim_hour_wall_s() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < marks_.size(); ++i) {
      const double hours =
          common::to_seconds(marks_[i].sim - marks_[i - 1].sim) / 3600.0;
      if (hours > 0) out.push_back((marks_[i].wall - marks_[i - 1].wall) / hours);
    }
    return out;
  }

  double sink_s = 0;  ///< total time inside `next`
  double merge_s = 0;
  std::uint64_t pending_peak = 0;

 private:
  struct Mark {
    common::SimTime sim = 0;
    double wall = 0;  ///< seconds since run begin, sink time excluded
  };

  Clock::time_point enter(bool sample) {
    const auto now = Clock::now();
    pending_peak = std::max<std::uint64_t>(pending_peak, simulation_.pending_events());
    if (sample) mark(now);
    entered_ = now;
    return now;
  }
  void leave() {
    last_exit_ = Clock::now();
    sink_s += seconds_between(entered_, last_exit_);
  }
  void mark(Clock::time_point now) {
    if (!loop_start_) return;
    marks_.push_back({simulation_.now(), seconds_between(*loop_start_, now) - sink_s});
  }
  void close_merge_gap(Clock::time_point now) {
    if (!merge_from_) return;
    merge_s += seconds_between(*merge_from_, now);
    merge_from_.reset();
  }

  measure::MeasurementSink& next_;
  sim::Simulation& simulation_;
  Clock::time_point entered_{};
  Clock::time_point last_exit_{};
  std::optional<Clock::time_point> loop_start_;
  std::optional<Clock::time_point> loop_end_;
  std::optional<Clock::time_point> merge_from_;
  double loop_sink_s_ = 0;
  std::vector<Mark> marks_;
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5)];
}

// ---- campaign ---------------------------------------------------------------

struct CampaignSpans {
  double create_s = 0;
  double sink_s = 0;  ///< time inside the sink (traced runs only)
};

/// Creates the engine for `spec`, runs it into `sink` and destroys it,
/// timing each step into `report`.  With `trace`, the run goes through a
/// TracingSink whose readings land in `report` too.
std::optional<std::string> run_campaign(const scenario::ScenarioSpec& spec,
                                        measure::MeasurementSink& sink, bool trace,
                                        Report& report, CampaignSpans& spans) {
  auto start = Clock::now();
  auto created = scenario::CampaignEngine::create(spec.to_campaign_config());
  if (!created) return created.error();
  std::optional<scenario::CampaignEngine> engine(std::move(*created));
  spans.create_s = seconds_between(start, Clock::now());
  report.put("campaign.create_s", spans.create_s);

  if (trace) {
    TracingSink tracing(sink, engine->simulation());
    engine->run(tracing);
    const auto per_hour = tracing.sim_hour_wall_s();
    spans.sink_s = tracing.sink_s;
    report.put("campaign.loop_s", tracing.loop_s());
    report.put("campaign.sim_hour_wall_s.p50", percentile(per_hour, 0.5));
    report.put("campaign.sim_hour_wall_s.max", percentile(per_hour, 1.0));
    report.put("measure.merge_s", tracing.merge_s);
    report.put("sim.pending_peak_sampled", tracing.pending_peak);
  } else {
    engine->run(sink);
  }

  start = Clock::now();
  engine.reset();
  report.put("campaign.teardown_s", seconds_between(start, Clock::now()));
  return std::nullopt;
}

struct Args {
  std::vector<std::string> words;

  [[nodiscard]] std::optional<std::string> value(const std::string& flag) const {
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      if (words[i] == flag) return words[i + 1];
    }
    return std::nullopt;
  }
  [[nodiscard]] bool has(const std::string& flag) const {
    return std::find(words.begin(), words.end(), flag) != words.end();
  }
};

int fail(const std::string& message) {
  std::cerr << "perfbench_driver: " << message << "\n";
  return 2;
}

std::optional<std::uint64_t> seed_arg(const Args& args, std::string& error) {
  const auto text = args.value("--seed");
  if (!text) {
    error = "--seed is required";
    return std::nullopt;
  }
  const auto seed = common::parse_u64(*text);
  if (!seed) error = "--seed: " + seed.error();
  return seed ? std::optional(*seed) : std::nullopt;
}

std::optional<double> positive_arg(const Args& args, const std::string& flag,
                                   std::string& error) {
  const auto text = args.value(flag);
  if (!text) return std::nullopt;
  const auto parsed = common::parse_finite_double(*text);
  if (!parsed || *parsed <= 0) {
    error = flag + ": must be a number > 0, got '" + *text + "'";
    return std::nullopt;
  }
  return *parsed;
}

/// The counts every campaign run reports, taken from the pipeline.
void put_counts(Report& report, const PipelineSink& pipeline) {
  report.put("campaign.population", pipeline.population);
  report.put("sim.events", pipeline.events);
  report.put("p2p.trim_closes", pipeline.analysis.trim_closes);
  report.put("p2p.open_peak", pipeline.peak);
  report.put("p2p.connections", pipeline.connections);
  report.put("p2p.peers", pipeline.peers);
  report.put("population_samples", pipeline.population_samples());
  report.put("provides", pipeline.provides);
  report.put("fetches", pipeline.fetches);
}

/// `ipfs_sim run NAME --scale X [--duration S] --seed N`, then the tables.
int cmd_campaign(const Args& args) {
  const bool trace = args.has("--trace");
  std::string error;
  const auto name = args.value("--scenario");
  const auto seed = seed_arg(args, error);
  const auto scale = positive_arg(args, "--scale", error);
  const auto duration = positive_arg(args, "--duration", error);
  if (!error.empty()) return fail(error);
  if (!name || !scale) return fail("--scenario and --scale are required");

  Report report;
  const auto start = Clock::now();
  auto spec = scenario::ScenarioSpec::builtin(*name);
  if (!spec) return fail("no builtin scenario '" + *name + "'");
  spec->campaign.seed = *seed;
  spec->population.scale = *scale;
  if (duration) spec->period.duration = common::from_seconds(*duration);
  if (auto invalid = scenario::ScenarioSpec::validate(*spec)) return fail(*invalid);
  const double load_s = seconds_between(start, Clock::now());
  report.put("scenario_spec.load_s", load_s);

  HashingBuf buffer;
  std::ostream out(&buffer);
  measure::JsonExportSink exporter(out, spec->output.export_options());
  PipelineSink pipeline(exporter);
  CampaignSpans spans;
  if (auto failed = run_campaign(*spec, pipeline, trace, report, spans)) {
    return fail("campaign: " + *failed);
  }
  out.flush();
  const StreamHash& hash = buffer.hash();
  const double wall_s = seconds_between(start, Clock::now()) - pipeline.excluded_s;

  report.put("wall_s", wall_s);
  report.put("setup_s", load_s + spans.create_s);
  report.put("peak_rss_bytes", peak_rss_bytes());
  report.put("export_hash", hex(hash.digest()));
  report.put("measure.export_bytes", hash.length());
  put_counts(report, pipeline);
  pipeline.analysis.put(report);
  if (trace) {
    // Sink time that was neither analysis nor the open-peak sweep is the
    // export sink's (the forwarding itself is two virtual calls).
    report.put("measure.export_s", spans.sink_s - pipeline.excluded_s);
  }
  report.print(std::cout);
  return 0;
}

// ---- calibration ------------------------------------------------------------

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// Completed-session lengths in ms, as the closed loop compares them.
std::vector<double> completed_ms(const std::vector<analysis::SessionTrace>& sessions) {
  std::vector<double> out;
  for (const analysis::SessionTrace& session : sessions) {
    if (!session.censored) {
      out.push_back(std::max(static_cast<double>(session.length()), 1.0));
    }
  }
  return out;
}

/// `ipfs_sim calibrate TRACE` (default options), then the tables over the
/// parsed trace.
///
/// Traced, calibrate::run is split at its public stages: parse_trace on
/// its own, run() without the closed loop (parse + fits, so fit_s is the
/// difference), and the closed loop re-run here through the traced
/// campaign path: create + run of the emitted scenario, session
/// reconstruction and the two-sample KS.  run.py checks that this KS
/// equals the one calibrate::run reports untraced.
int cmd_calibrate(const Args& args) {
  const bool trace = args.has("--trace");
  const auto input = args.value("--input");
  if (!input) return fail("--input is required");

  Report report;
  const auto start = Clock::now();
  const auto text = read_file(*input);
  if (!text) return fail("cannot read " + *input);
  const double setup_s = seconds_between(start, Clock::now());

  analysis::calibrate::Options options;
  double calibrate_s = 0;
  std::expected<analysis::calibrate::Result, std::string> result;
  if (!trace) {
    result = timed(calibrate_s, [&] { return analysis::calibrate::run(*text, options); });
    if (!result) return fail("calibrate: " + result.error());
    report.put("calibration.ks", result->loop.ks);
    report.put("closed_loop_pass", std::uint64_t{result->loop.ran && result->loop.pass});
  } else {
    double parse_s = 0;
    const auto parsed =
        timed(parse_s, [&] { return analysis::calibrate::parse_trace(*text); });
    if (!parsed) return fail("calibrate: " + parsed.error());
    options.verify = false;
    result = timed(calibrate_s, [&] { return analysis::calibrate::run(*text, options); });
    if (!result) return fail("calibrate: " + result.error());
    const auto measured =
        completed_ms(analysis::reconstruct_sessions(result->trace, options.max_gap));

    // The closed loop, stage by stage.
    const auto loop_start = Clock::now();
    auto spec = result->scenario;
    if (auto invalid = scenario::ScenarioSpec::validate(spec)) return fail(*invalid);
    report.put("scenario_spec.load_s", seconds_between(loop_start, Clock::now()));
    scenario::CampaignResultSink collected;
    PipelineSink pipeline(collected);
    CampaignSpans spans;
    if (auto failed = run_campaign(spec, pipeline, true, report, spans)) {
      return fail("closed loop: " + *failed);
    }
    const auto campaign = collected.take_result();
    if (!campaign.go_ipfs) return fail("closed loop: no vantage dataset");
    const double ks = analysis::calibrate::two_sample_ks(
        measured,
        completed_ms(analysis::reconstruct_sessions(*campaign.go_ipfs, options.max_gap)));
    const double verify_s = seconds_between(loop_start, Clock::now()) - pipeline.excluded_s;
    calibrate_s += verify_s;

    report.put("calibration.parse_s", parse_s);
    report.put("calibration.fit_s", calibrate_s - verify_s - parse_s);
    report.put("calibration.verify_s", verify_s);
    report.put("calibration.ks", ks);
    report.put("closed_loop_pass", std::uint64_t{ks <= options.ks_threshold});
    // The closed loop's campaign went through the pipeline; report its
    // layers (the result sink stands where the export sink would).
    put_counts(report, pipeline);
    report.put("measure.export_s", spans.sink_s - pipeline.excluded_s);
  }

  StreamHash hash;
  const std::string scenario_json = result->scenario.to_json_string();
  const std::string report_json = result->report_json();
  hash.update(scenario_json.data(), scenario_json.size());
  hash.update(report_json.data(), report_json.size());

  Analysis tables;
  tables.primary(result->trace, {});
  std::uint64_t fitted_groups = 0;
  for (const auto& [group_name, fit] : result->groups) {
    fitted_groups += fit.session.any_ok() && fit.gap.any_ok() ? 1 : 0;
  }

  report.put("wall_s", setup_s + calibrate_s);
  report.put("setup_s", setup_s);
  report.put("peak_rss_bytes", peak_rss_bytes());
  report.put("export_hash", hex(hash.digest()));
  report.put("calibration.sessions", static_cast<std::uint64_t>(result->measured.session_count));
  report.put("calibration.fitted_groups", fitted_groups);
  tables.put(report);
  report.print(std::cout);
  return 0;
}

/// The calibration input: examples/passive_measurement's recipe (P2, one
/// day, default session churn, go-ipfs vantage with its connection log)
/// at `--scale`, seeded with `--seed`.
int cmd_gen_trace(const Args& args) {
  std::string error;
  const auto seed = seed_arg(args, error);
  const auto scale = positive_arg(args, "--scale", error);
  const auto path = args.value("--out");
  if (!error.empty()) return fail(error);
  if (!scale || !path) return fail("--scale and --out are required");

  scenario::CampaignConfig config;
  config.period = scenario::PeriodSpec::P2();
  config.population = scenario::PopulationSpec::test_scale(*scale);
  config.seed = *seed;
  config.churn = scenario::ChurnSpec{};
  auto engine = scenario::CampaignEngine::create(config);
  if (!engine) return fail("gen-trace: " + engine.error());

  std::ofstream out(*path, std::ios::binary);
  if (!out) return fail("cannot write " + *path);
  measure::JsonExportSink::Options export_options;
  export_options.include_connections = true;
  export_options.role_filter = measure::DatasetRole::kVantage;
  measure::JsonExportSink exporter(out, export_options);
  engine->run(exporter);
  out.flush();
  if (!out) return fail("error writing " + *path);
  return 0;
}

/// Hash of the files' concatenated bytes, as the runs report it.
int cmd_hash_file(const Args& args) {
  if (args.words.empty()) return fail("hash-file takes FILE...");
  StreamHash hash;
  std::vector<char> chunk(1 << 20);
  for (const std::string& path : args.words) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return fail("cannot read " + path);
    while (in) {
      in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      hash.update(chunk.data(), static_cast<std::size_t>(in.gcount()));
    }
  }
  Report report;
  report.put("hash", hex(hash.digest()));
  report.put("bytes", hash.length());
  report.print(std::cout);
  return 0;
}

int cmd_info() {
  Report report;
  report.put("compiler", std::string("g++ ") + __VERSION__);
  report.put("build_type", std::string(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  report.put("ndebug", std::uint64_t{1});
#else
  report.put("ndebug", std::uint64_t{0});
#endif
  report.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return fail("usage: perfbench_driver campaign|calibrate|gen-trace|hash-file|info ...");
  }
  const std::string command = argv[1];
  const Args args{std::vector<std::string>(argv + 2, argv + argc)};
  if (command == "campaign") return cmd_campaign(args);
  if (command == "calibrate") return cmd_calibrate(args);
  if (command == "gen-trace") return cmd_gen_trace(args);
  if (command == "hash-file") return cmd_hash_file(args);
  if (command == "info") return cmd_info();
  return fail("unknown command '" + command + "'");
}
