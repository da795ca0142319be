// Closed-loop calibration on the checked-in reference trace
// (scenarios/traces/passive_measurement_small.json): the full pipeline
// must fit every peer group, emit a scenario that validates and
// round-trips byte-exactly, pass the closed-loop KS check against a
// re-simulation, and produce identical bytes on every run — bytes that are
// also hash-pinned.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/calibration.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "scenario/scenario_spec.hpp"

namespace ipfs::analysis::calibrate {
namespace {

constexpr const char* kTracePath =
    IPFS_SOURCE_DIR "/scenarios/traces/passive_measurement_small.json";

std::string read_trace() {
  std::ifstream in(kTracePath, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing reference trace " << kTracePath;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CalibrationLoop, ReferenceTraceCalibratesEndToEnd) {
  const std::string trace = read_trace();
  ASSERT_FALSE(trace.empty());

  const auto result = run(trace);
  ASSERT_TRUE(result.has_value()) << result.error();

  // The trace has a real measurement window, so sessions still open at
  // its end must have been censored rather than fitted as short.
  EXPECT_GT(result->measured.session_count, 100u);
  EXPECT_GT(result->measured.censored_sessions, 0u);
  EXPECT_LT(result->measured.censored_sessions, result->measured.session_count);

  // Every documented peer group fits both distributions.
  for (const std::string group : {"all", "dht_servers", "clients"}) {
    ASSERT_TRUE(result->groups.contains(group)) << group;
    const GroupFit& fit = result->groups.at(group);
    EXPECT_TRUE(fit.session.any_ok()) << group;
    EXPECT_TRUE(fit.gap.any_ok()) << group;
    EXPECT_LE(fit.session.best().ks, 0.2) << group;
  }

  // The closed loop: re-simulating the emitted scenario reproduces the
  // measured session-length CDF within the acceptance threshold.
  EXPECT_TRUE(result->loop.ran);
  EXPECT_GT(result->loop.simulated_sessions, 0u);
  EXPECT_LE(result->loop.ks, result->loop.threshold);
  EXPECT_TRUE(result->loop.pass);
}

TEST(CalibrationLoop, EmittedScenarioValidatesAndRoundTrips) {
  const auto result = run(read_trace());
  ASSERT_TRUE(result.has_value()) << result.error();

  const scenario::ScenarioSpec& spec = result->scenario;
  EXPECT_EQ(spec.name, "calibrated");
  ASSERT_TRUE(spec.churn.has_value());
  EXPECT_FALSE(spec.churn->categories.empty());
  EXPECT_EQ(scenario::ScenarioSpec::validate(spec), std::nullopt);

  // Byte-exact round trip through the strict scenario layer.
  const std::string emitted = spec.to_json_string();
  const auto reparsed = scenario::ScenarioSpec::from_json(emitted);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->to_json_string(), emitted);
}

TEST(CalibrationLoop, PipelineIsByteDeterministic) {
  const std::string trace = read_trace();
  const auto first = run(trace);
  const auto second = run(trace);
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_TRUE(second.has_value()) << second.error();
  EXPECT_EQ(first->scenario.to_json_string(), second->scenario.to_json_string());
  EXPECT_EQ(first->report_json(), second->report_json());
  EXPECT_EQ(first->loop.ks, second->loop.ks);
}

TEST(CalibrationLoop, ReferenceTraceOutputIsHashPinned) {
  // FNV-1a (common::hash64) of the emitted scenario bytes followed by the
  // report bytes, default options, recorded before the fitters evaluated
  // per distinct value.  A change here means a fitted parameter, a
  // statistic or the closed loop moved: a determinism regression, not a
  // constant to refresh.
  const auto result = run(read_trace());
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_EQ(common::hash64(result->scenario.to_json_string() +
                           result->report_json()),
            0xc32f5bd38c07e2d7ULL);
}

TEST(CalibrationLoop, GapOptionChangesTheCensoringHorizon) {
  const std::string trace = read_trace();
  Options wide;
  wide.max_gap = 2 * common::kHour;
  wide.verify = false;
  const auto narrow = run(trace, {.verify = false});
  const auto merged = run(trace, wide);
  ASSERT_TRUE(narrow.has_value()) << narrow.error();
  ASSERT_TRUE(merged.has_value()) << merged.error();
  // A wider gap threshold merges sessions: strictly fewer of them.
  EXPECT_LT(merged->measured.session_count, narrow->measured.session_count);
}

}  // namespace
}  // namespace ipfs::analysis::calibrate
