#include "scenario/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "runtime/parallel.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::scenario {
namespace {

ScenarioSpec parse_or_die(const std::string& text) {
  auto spec = ScenarioSpec::from_json(text);
  EXPECT_TRUE(spec.has_value()) << spec.error();
  return spec.value_or(ScenarioSpec{});
}

// ---- round-tripping ---------------------------------------------------------

TEST(ScenarioSpec, RoundTripIdentityForEveryBuiltin) {
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    const std::string text = spec.to_json_string();
    const ScenarioSpec reparsed = parse_or_die(text);
    EXPECT_EQ(reparsed, spec) << spec.name;
    // And serialisation is deterministic: a second trip is byte-identical.
    EXPECT_EQ(reparsed.to_json_string(), text) << spec.name;
  }
}

TEST(ScenarioSpec, RoundTripPreservesEveryField) {
  ScenarioSpec spec;
  spec.name = "custom";
  spec.description = "all fields set to non-default values";
  spec.period.name = "CUSTOM";
  spec.period.dates = "2026-01-01 - 2026-01-02";
  spec.period.duration = 36 * common::kHour + 123;
  spec.period.go_ipfs_mode = dht::Mode::kClient;
  spec.period.go_low_water = 111;
  spec.period.go_high_water = 222;
  spec.period.hydra_heads = 5;
  spec.period.hydra_low_water = 333;
  spec.period.hydra_high_water = 444;
  spec.population.scale = 0.1234567890123456;  // must not lose precision
  spec.population.counts.core_servers = 7;
  spec.population.counts.nat_group_max = 12;
  CategoryParams crawler = default_params(Category::kCrawler);
  crawler.session = SessionKind::kRecurring;
  crawler.mean_session = 90 * common::kMinute;
  crawler.mean_gap = 5 * common::kMinute;
  crawler.queries_per_hour = 17.25;
  spec.population.set_override(Category::kCrawler, crawler);
  spec.campaign.seed = 0xdeadbeefcafef00dULL;  // needs full 64-bit precision
  spec.campaign.trials = 3;
  spec.campaign.workers = 2;
  spec.campaign.vantage_visibility = 0.87;
  spec.campaign.enable_crawler = false;
  spec.campaign.crawl_interval = 90 * common::kMinute;
  spec.campaign.enable_metadata_dynamics = false;
  spec.campaign.client_dials_per_hour = 123.456;
  spec.output.pretty = false;
  spec.output.include_connections = true;
  spec.output.role_filter = measure::DatasetRole::kVantage;

  const ScenarioSpec reparsed = parse_or_die(spec.to_json_string());
  EXPECT_EQ(reparsed, spec);
}

TEST(ScenarioSpec, AbsentFieldsKeepDefaults) {
  const ScenarioSpec minimal = parse_or_die(R"({"name":"tiny"})");
  const ScenarioSpec defaults = [] {
    ScenarioSpec spec;
    spec.name = "tiny";
    return spec;
  }();
  EXPECT_EQ(minimal, defaults);
}

TEST(ScenarioSpec, CategoryOverrideFieldsDefaultToCalibratedValues) {
  const ScenarioSpec spec = parse_or_die(R"({
    "name": "partial-override",
    "population": {"categories": {"crawler": {"queries_per_hour": 9.5}}}
  })");
  const CategoryParams& params = spec.population.params(Category::kCrawler);
  EXPECT_DOUBLE_EQ(params.queries_per_hour, 9.5);
  // Every other field stays at the calibrated default.
  const CategoryParams& defaults = default_params(Category::kCrawler);
  EXPECT_EQ(params.session, defaults.session);
  EXPECT_EQ(params.query_duration_median, defaults.query_duration_median);
  EXPECT_EQ(params.crawl_visibility, defaults.crawl_visibility);
}

// ---- validation -------------------------------------------------------------

struct RejectionCase {
  const char* label;
  const char* document;
  const char* expected_fragment;
};

TEST(ScenarioSpec, RejectsInvalidSpecs) {
  const RejectionCase cases[] = {
      {"empty name", R"({"name":""})", "name must be non-empty"},
      {"negative duration", R"({"name":"x","period":{"duration_ms":-5}})",
       "duration must be positive"},
      {"zero duration", R"({"name":"x","period":{"duration_ms":0}})",
       "duration must be positive"},
      {"zero trials", R"({"name":"x","campaign":{"trials":0}})",
       "trials must be >= 1"},
      {"unknown category",
       R"({"name":"x","population":{"categories":{"warthog":{}}}})",
       "unknown category name 'warthog'"},
      {"unknown top-level field", R"({"name":"x","perod":{}})",
       "unknown field 'perod'"},
      {"unknown period field", R"({"name":"x","period":{"duration_hours":1}})",
       "unknown field 'duration_hours'"},
      {"inverted watermarks",
       R"({"name":"x","period":{"go_ipfs":{"low_water":10,"high_water":5}}})",
       "LowWater <= HighWater"},
      {"negative scale", R"({"name":"x","population":{"scale":-1}})",
       "scale must be positive"},
      {"zero scale", R"({"name":"x","population":{"scale":0}})",
       "scale must be positive"},
      {"bad session kind",
       R"({"name":"x","population":{"categories":{"crawler":{"session":"sometimes"}}}})",
       "expected \"always-on\", \"recurring\" or \"one-shot\""},
      {"probability out of range",
       R"({"name":"x","population":{"categories":{"crawler":{"maintain_probability":1.5}}}})",
       "maintain_probability must be in [0, 1]"},
      {"negative mean session",
       R"({"name":"x","population":{"categories":{"crawler":{"mean_session_ms":-1}}}})",
       "mean_session_ms must be >= 0"},
      {"nat group bounds",
       R"({"name":"x","population":{"counts":{"nat_group_min":6,"nat_group_max":2}}})",
       "nat_group_max must be >= nat_group_min"},
      {"storm exceeds light servers",
       R"({"name":"x","population":{"counts":{"light_servers":5,"disguised_storm":6}}})",
       "disguised_storm cannot exceed light_servers"},
      {"unknown role filter",
       R"({"name":"x","output":{"role_filter":"everything"}})",
       "unknown dataset role 'everything'"},
      {"vantage-less campaign",
       R"({"name":"x","period":{"go_ipfs":{"present":false},"hydra":{"heads":0}}})",
       "at least one vantage"},
      {"visibility above one", R"({"name":"x","campaign":{"vantage_visibility":1.5}})",
       "vantage_visibility must be in (0, 1]"},
      {"string where number expected",
       R"({"name":"x","period":{"duration_ms":"3d"}})",
       "expected an integer number of milliseconds"},
      {"syntax error", R"({"name":)", "1:9"},
  };
  for (const RejectionCase& test_case : cases) {
    const auto spec = ScenarioSpec::from_json(test_case.document);
    ASSERT_FALSE(spec.has_value()) << test_case.label;
    EXPECT_NE(spec.error().find(test_case.expected_fragment), std::string::npos)
        << test_case.label << ": got error '" << spec.error() << "'";
  }
}

struct PinnedError {
  const char* document;
  const char* error;
};

// Whole-string pins for every parse-stage message: reader kinds, each
// section's shape and unknown-field errors, the enum errors, and the
// first-error-wins order where hand-written code sits between fields.
TEST(ScenarioSpec, ErrorMessagesArePinnedExactly) {
  const PinnedError cases[] = {
      // One row per reader kind.
      {R"({"name":"x","period":{"go_ipfs":{"present":1}}})",
       "period.go_ipfs.present: expected true or false"},
      {R"({"name":"x","population":{"scale":"big"}})",
       "population.scale: expected a number"},
      {R"({"name":7})", "name: expected a string"},
      {R"({"name":"x","period":{"name":5}})", "period.name: expected a string"},
      {R"({"name":"x","population":{"counts":{"crawlers":4294967296}}})",
       "population.counts.crawlers: expected an integer in [0, 2^32)"},
      {R"({"name":"x","campaign":{"seed":-1}})",
       "campaign.seed: expected a non-negative integer"},
      {R"({"name":"x","period":{"hydra":{"heads":1.5}}})",
       "period.hydra.heads: expected an integer"},
      {R"({"name":"x","period":{"duration_ms":"3d"}})",
       "period.duration_ms: expected an integer number of milliseconds"},
      // Document, period, go_ipfs, hydra.
      {R"([])", "document: expected an object, got array"},
      {R"({"name":"x","bogus":1})", "document: unknown field 'bogus'"},
      {R"({"name":"x","period":3})", "period: expected an object, got number"},
      {R"({"name":"x","period":{"bogus":1}})", "period: unknown field 'bogus'"},
      {R"({"name":"x","period":{"go_ipfs":[]}})",
       "period.go_ipfs: expected an object, got array"},
      {R"({"name":"x","period":{"go_ipfs":{"bogus":1}}})",
       "period.go_ipfs: unknown field 'bogus'"},
      {R"({"name":"x","period":{"hydra":"two"}})",
       "period.hydra: expected an object, got string"},
      {R"({"name":"x","period":{"hydra":{"bogus":1}}})",
       "period.hydra: unknown field 'bogus'"},
      // Population, counts, categories.
      {R"({"name":"x","population":null})",
       "population: expected an object, got null"},
      {R"({"name":"x","population":{"bogus":1}})",
       "population: unknown field 'bogus'"},
      {R"({"name":"x","population":{"counts":true}})",
       "population.counts: expected an object, got bool"},
      {R"({"name":"x","population":{"counts":{"bogus":1}}})",
       "population.counts: unknown field 'bogus'"},
      {R"({"name":"x","population":{"categories":[]}})",
       "population.categories: expected an object, got array"},
      {R"({"name":"x","population":{"categories":{"warthog":{}}}})",
       "population.categories: unknown category name 'warthog'"},
      {R"({"name":"x","population":{"categories":{"crawler":5}}})",
       "population.categories.crawler: expected an object, got number"},
      {R"({"name":"x","population":{"categories":{"crawler":{"bogus":1}}}})",
       "population.categories.crawler: unknown field 'bogus'"},
      // Network and its subsections.
      {R"({"name":"x","network":[]})", "network: expected an object, got array"},
      {R"({"name":"x","network":{"bogus":1}})", "network: unknown field 'bogus'"},
      {R"({"name":"x","network":{"latency":1}})",
       "network.latency: expected an object, got number"},
      {R"({"name":"x","network":{"latency":{"bogus":1}}})",
       "network.latency: unknown field 'bogus'"},
      {R"({"name":"x","network":{"zones":{}}})", "network.zones: expected an array"},
      {R"({"name":"x","network":{"zones":[1]}})",
       "network.zones[0]: expected an object, got number"},
      {R"({"name":"x","network":{"zones":[{"name":"eu"},{"bogus":1}]}})",
       "network.zones[1]: unknown field 'bogus'"},
      {R"({"name":"x","network":{"default_link":[]}})",
       "network.default_link: expected an object, got array"},
      {R"({"name":"x","network":{"default_link":{"bogus":1}}})",
       "network.default_link: unknown field 'bogus'"},
      {R"({"name":"x","network":{"links":"eu-na"}})",
       "network.links: expected an array"},
      {R"({"name":"x","network":{"links":[null]}})",
       "network.links[0]: expected an object, got null"},
      {R"({"name":"x","network":{"links":[{"bogus":1}]}})",
       "network.links[0]: unknown field 'bogus'"},
      {R"({"name":"x","network":{"loss":0.1}})",
       "network.loss: expected an object, got number"},
      {R"({"name":"x","network":{"loss":{"bogus":1}}})",
       "network.loss: unknown field 'bogus'"},
      {R"({"name":"x","network":{"nat":[]}})",
       "network.nat: expected an object, got array"},
      {R"({"name":"x","network":{"nat":{"bogus":1}}})",
       "network.nat: unknown field 'bogus'"},
      {R"({"name":"x","network":{"nat":{"classes":{}}}})",
       "network.nat.classes: expected an array"},
      {R"({"name":"x","network":{"nat":{"classes":["public"]}}})",
       "network.nat.classes[0]: expected an object, got string"},
      {R"({"name":"x","network":{"nat":{"classes":[{"bogus":1}]}}})",
       "network.nat.classes[0]: unknown field 'bogus'"},
      {R"({"name":"x","network":{"nat":{"categories":[]}}})",
       "network.nat.categories: expected an object, got array"},
      {R"({"name":"x","network":{"nat":{"categories":{"warthog":"public"}}}})",
       "network.nat.categories: unknown category name 'warthog'"},
      {R"({"name":"x","network":{"nat":{"categories":{"crawler":1}}}})",
       "network.nat.categories.crawler: expected a class name"},
      {R"({"name":"x","network":{"disturbances":{}}})",
       "network.disturbances: expected an array"},
      {R"({"name":"x","network":{"disturbances":[2]}})",
       "network.disturbances[0]: expected an object, got number"},
      {R"({"name":"x","network":{"disturbances":[{"kind":"outage","extra_loss":0.1}]}})",
       "network.disturbances[0]: unknown field 'extra_loss'"},
      {R"({"name":"x","network":{"disturbances":[{"kind":"partition","zone":"eu"}]}})",
       "network.disturbances[0]: unknown field 'zone'"},
      {R"({"name":"x","network":{"disturbances":[{"kind":"degrade","zones":[]}]}})",
       "network.disturbances[0]: unknown field 'zones'"},
      {R"({"name":"x","network":{"disturbances":[{"kind":"partition","zones":"eu"}]}})",
       "network.disturbances[0].zones: expected an array of zone names"},
      {R"({"name":"x","network":{"disturbances":[{"kind":"partition","zones":[1]}]}})",
       "network.disturbances[0].zones: expected an array of zone names"},
      {R"({"name":"x","network":{"disturbances":[{"kind":"degrade","zone":4}]}})",
       "network.disturbances[0].zone: expected a string"},
      // Churn, its distribution kinds and categories.
      {R"({"name":"x","churn":1})", "churn: expected an object, got number"},
      {R"({"name":"x","churn":{"bogus":1}})", "churn: unknown field 'bogus'"},
      {R"({"name":"x","churn":{"session":[]}})",
       "churn.session: expected an object, got array"},
      {R"({"name":"x","churn":{"session":{"kind":"exponential","shape":1}}})",
       "churn.session: unknown field 'shape'"},
      {R"({"name":"x","churn":{"gap":{"kind":"weibull","mean_ms":1}}})",
       "churn.gap: unknown field 'mean_ms'"},
      {R"({"name":"x","churn":{"gap":{"kind":"lognormal","scale_ms":1}}})",
       "churn.gap: unknown field 'scale_ms'"},
      {R"({"name":"x","churn":{"session":{"kind":"weibull","shape":"k"}}})",
       "churn.session.shape: expected a number"},
      {R"({"name":"x","churn":{"diurnal":3}})",
       "churn.diurnal: expected an object, got number"},
      {R"({"name":"x","churn":{"diurnal":{"bogus":1}}})",
       "churn.diurnal: unknown field 'bogus'"},
      {R"({"name":"x","churn":{"categories":[]}})",
       "churn.categories: expected an object, got array"},
      {R"({"name":"x","churn":{"categories":{"warthog":{}}}})",
       "churn.categories: unknown category name 'warthog'"},
      {R"({"name":"x","churn":{"categories":{"crawler":1}}})",
       "churn.categories.crawler: expected an object, got number"},
      {R"({"name":"x","churn":{"categories":{"crawler":{"bogus":1}}}})",
       "churn.categories.crawler: unknown field 'bogus'"},
      {R"({"name":"x","churn":{"categories":{"crawler":{"gap":{"kind":"pareto"}}}}})",
       "churn.categories.crawler.gap.kind: expected \"exponential\", \"weibull\" "
       "or \"lognormal\""},
      // Content and its categories.
      {R"({"name":"x","content":"lots"})", "content: expected an object, got string"},
      {R"({"name":"x","content":{"bogus":1}})", "content: unknown field 'bogus'"},
      {R"({"name":"x","content":{"keys":-3}})",
       "content.keys: expected an integer in [0, 2^32)"},
      {R"({"name":"x","content":{"categories":1}})",
       "content.categories: expected an object, got number"},
      {R"({"name":"x","content":{"categories":{"warthog":{}}}})",
       "content.categories: unknown category name 'warthog'"},
      {R"({"name":"x","content":{"categories":{"crawler":[]}}})",
       "content.categories.crawler: expected an object, got array"},
      {R"({"name":"x","content":{"categories":{"crawler":{"bogus":1}}}})",
       "content.categories.crawler: unknown field 'bogus'"},
      // Phases and the phase modes.
      {R"({"name":"x","phases":[]})", "phases: expected an object, got array"},
      {R"({"name":"x","phases":{"bogus":1}})", "phases: unknown field 'bogus'"},
      {R"({"name":"x","phases":{}})", "phases.program: required"},
      {R"({"name":"x","phases":{"program":{}}})", "phases.program: expected an array"},
      {R"({"name":"x","phases":{"program":[1]}})",
       "phases.program[0]: expected an object, got number"},
      {R"({"name":"x","phases":{"program":[{"hold_ms":1}]}})",
       "phases.program[0]: mode is required"},
      {R"({"name":"x","phases":{"program":[{"mode":1}]}})",
       "phases.program[0].mode: expected a string"},
      {R"({"name":"x","phases":{"program":[{"mode":"hold","hold_ms":1,"switch_ms":1}]}})",
       "phases.program[0]: unknown field 'switch_ms'"},
      {R"({"name":"x","phases":{"program":[{"mode":"ramp","hold_ms":1,"spike":2}]}})",
       "phases.program[0]: unknown field 'spike'"},
      {R"({"name":"x","phases":{"program":[{"mode":"burst","hold_ms":1,"hot_key":1}]}})",
       "phases.program[0]: unknown field 'hot_key'"},
      {R"({"name":"x","phases":{"program":[{"mode":"flash_crowd","hold_ms":1,"switch_ms":1}]}})",
       "phases.program[0]: unknown field 'switch_ms'"},
      {R"({"name":"x","phases":{"program":[{"mode":"hold","hold_ms":0}]}})",
       "phases.program[0]: hold_ms must be > 0"},
      {R"({"name":"x","phases":{"program":[{"mode":"hold","hold_ms":0,"churn_rate":"x"}]}})",
       "phases.program[0]: hold_ms must be > 0"},
      {R"({"name":"x","phases":{"program":[{"mode":"burst","hold_ms":1,"switch_ms":0}]}})",
       "phases.program[0]: switch_ms must be > 0"},
      {R"({"name":"x","phases":{"program":[{"mode":"flash_crowd","hold_ms":1,"spike":"x"}]}})",
       "phases.program[0].spike: expected a number"},
      // Campaign, crawler, output.
      {R"({"name":"x","campaign":4})", "campaign: expected an object, got number"},
      {R"({"name":"x","campaign":{"bogus":1}})", "campaign: unknown field 'bogus'"},
      {R"({"name":"x","campaign":{"crawler":false}})",
       "campaign.crawler: expected an object, got bool"},
      {R"({"name":"x","campaign":{"crawler":{"bogus":1}}})",
       "campaign.crawler: unknown field 'bogus'"},
      {R"({"name":"x","campaign":{"metadata_dynamics":1,"crawler":{"enabled":1}}})",
       "campaign.crawler.enabled: expected true or false"},
      {R"({"name":"x","output":"stdout"})", "output: expected an object, got string"},
      {R"({"name":"x","output":{"bogus":1}})", "output: unknown field 'bogus'"},
      // One row per enum error.
      {R"({"name":"x","period":{"go_ipfs":{"mode":"peer"}}})",
       "period.go_ipfs.mode: expected \"server\" or \"client\""},
      {R"({"name":"x","period":{"go_ipfs":{"mode":"peer","low_water":"x"}}})",
       "period.go_ipfs.mode: expected \"server\" or \"client\""},
      {R"({"name":"x","period":{"go_ipfs":{"present":0,"mode":"peer"}}})",
       "period.go_ipfs.present: expected true or false"},
      {R"({"name":"x","population":{"categories":{"crawler":{"session":"sometimes"}}}})",
       "population.categories.crawler.session: expected \"always-on\", "
       "\"recurring\" or \"one-shot\""},
      {R"({"name":"x","network":{"disturbances":[{"kind":"flood"}]}})",
       "network.disturbances[0].kind: expected \"outage\", \"partition\" or "
       "\"degrade\""},
      {R"({"name":"x","churn":{"session":{"kind":"pareto"}}})",
       "churn.session.kind: expected \"exponential\", \"weibull\" or "
       "\"lognormal\""},
      {R"({"name":"x","phases":{"program":[{"mode":"spike","hold_ms":1}]}})",
       "phases.program[0].mode: expected \"hold\", \"ramp\", \"burst\" or "
       "\"flash_crowd\""},
      {R"({"name":"x","phases":{"diurnal_clock":"relative","program":[]}})",
       "phases.diurnal_clock: expected \"absolute\""},
      {R"({"name":"x","output":{"role_filter":"everything"}})",
       "output.role_filter: unknown dataset role 'everything'"},
      {R"({"name":"x","output":{"role_filter":3}})",
       "output.role_filter: expected a string or null"},
  };
  for (const PinnedError& test_case : cases) {
    const auto spec = ScenarioSpec::from_json(test_case.document);
    ASSERT_FALSE(spec.has_value()) << test_case.document;
    EXPECT_EQ(spec.error(), test_case.error) << test_case.document;
  }
}

// ---- preset equivalence -----------------------------------------------------

TEST(ScenarioSpec, CompiledPresetsAreThinWrappersOverBuiltins) {
  EXPECT_EQ(PeriodSpec::P0(), ScenarioSpec::builtin("p0")->period);
  EXPECT_EQ(PeriodSpec::P1(), ScenarioSpec::builtin("p1")->period);
  EXPECT_EQ(PeriodSpec::P2(), ScenarioSpec::builtin("p2")->period);
  EXPECT_EQ(PeriodSpec::P3(), ScenarioSpec::builtin("p3")->period);
  EXPECT_EQ(PeriodSpec::P4(), ScenarioSpec::builtin("p4")->period);
  EXPECT_EQ(PeriodSpec::Long14d(), ScenarioSpec::builtin("long14d")->period);
}

TEST(ScenarioSpec, DefaultCampaignConfigMatchesP4Builtin) {
  // CampaignConfig's defaults and the p4 builtin describe the same run.
  const CampaignConfig defaults;
  const CampaignConfig from_spec = ScenarioSpec::builtin("p4")->to_campaign_config();
  EXPECT_EQ(from_spec.period, defaults.period);
  EXPECT_EQ(from_spec.population, defaults.population);
  EXPECT_EQ(from_spec.seed, defaults.seed);
  EXPECT_EQ(from_spec.vantage_visibility, defaults.vantage_visibility);
  EXPECT_EQ(from_spec.enable_crawler, defaults.enable_crawler);
  EXPECT_EQ(from_spec.crawl_interval, defaults.crawl_interval);
  EXPECT_EQ(from_spec.enable_metadata_dynamics, defaults.enable_metadata_dynamics);
  EXPECT_EQ(from_spec.client_dials_per_hour, defaults.client_dials_per_hour);
}

TEST(ScenarioSpec, TrialSeedsAreSequentialFromBase) {
  ScenarioSpec spec = *ScenarioSpec::builtin("p1");
  spec.campaign.seed = 100;
  spec.campaign.trials = 4;
  EXPECT_EQ(spec.trial_seeds(), (std::vector<std::uint64_t>{100, 101, 102, 103}));
}

TEST(ScenarioSpec, BuiltinLookup) {
  EXPECT_TRUE(ScenarioSpec::builtin("nat-heavy").has_value());
  EXPECT_TRUE(ScenarioSpec::builtin("crawler-storm").has_value());
  EXPECT_TRUE(ScenarioSpec::builtin("weekend-diurnal").has_value());
  EXPECT_FALSE(ScenarioSpec::builtin("p9").has_value());
  for (const ScenarioSpec& spec : ScenarioSpec::builtins()) {
    EXPECT_EQ(ScenarioSpec::validate(spec), std::nullopt) << spec.name;
  }
}

// ---- checked-in files -------------------------------------------------------

// The builtins are the checked-in files compiled in (builtin_scenarios.cpp).
// This pins the chain file -> embedded text -> builtin: every file under
// scenarios/ is embedded, every embedded text is canonical, and every
// builtin lives in the file its name says.
TEST(ScenarioSpec, CheckedInFilesAreTheEmbeddedBuiltins) {
  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(IPFS_SOURCE_DIR) + "/scenarios")) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      on_disk.insert(entry.path().filename().string());
    }
  }
  std::set<std::string> embedded;
  for (const EmbeddedScenario& file : embedded_scenarios()) {
    EXPECT_TRUE(embedded.insert(std::string(file.file)).second)
        << file.file << " is embedded twice";
    const auto spec = ScenarioSpec::from_json(file.text);
    ASSERT_TRUE(spec.has_value()) << file.file << ": " << spec.error();
    EXPECT_EQ(spec->to_json_string(), file.text)
        << file.file << " is not in canonical form "
        << "(regenerate with: ipfs_sim export --all)";
  }
  EXPECT_EQ(on_disk, embedded)
      << "append each scenarios/*.json to the list in builtin_scenarios.cpp";

  const auto files = embedded_scenarios();
  const std::vector<ScenarioSpec>& builtins = ScenarioSpec::builtins();
  ASSERT_EQ(builtins.size(), files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(scenario_file_name(builtins[i].name), files[i].file);
  }
  EXPECT_EQ(scenario_file_name("nat-heavy"), "nat_heavy.json");
}

// ---- campaign equivalence ---------------------------------------------------

std::string run_to_json(const CampaignConfig& config) {
  auto engine = CampaignEngine::create(config);
  EXPECT_TRUE(engine.has_value()) << engine.error();
  std::ostringstream out;
  measure::JsonExportSink sink(out);
  engine->run(sink);
  return out.str();
}

TEST(ScenarioSpec, SpecCampaignOutputByteIdenticalToCompiledPresets) {
  // The acceptance check of the scenario layer: running scenarios/pN.json
  // (here: its builtin, which is that file compiled in) produces exactly
  // what the compiled preset produces.
  const struct {
    const char* builtin_name;
    PeriodSpec (*preset)();
  } periods[] = {
      {"p0", &PeriodSpec::P0}, {"p1", &PeriodSpec::P1}, {"p2", &PeriodSpec::P2},
      {"p3", &PeriodSpec::P3}, {"p4", &PeriodSpec::P4},
  };
  constexpr double kScale = 0.002;  // keep the five runs test-sized
  for (const auto& period : periods) {
    ScenarioSpec spec = *ScenarioSpec::builtin(period.builtin_name);
    spec.population.scale = kScale;

    CampaignConfig preset;
    preset.period = period.preset();
    preset.population = PopulationSpec::test_scale(kScale);

    const std::string from_spec = run_to_json(spec.to_campaign_config());
    const std::string from_preset = run_to_json(preset);
    ASSERT_FALSE(from_spec.empty()) << period.builtin_name;
    EXPECT_EQ(from_spec, from_preset) << period.builtin_name;
  }
}

TEST(ScenarioSpec, MultiTrialSweepMatchesSequentialLoop) {
  // ipfs_sim's multi-trial path: ParallelTrialRunner over the spec's seeds
  // must byte-match running each seed sequentially.
  ScenarioSpec spec = *ScenarioSpec::builtin("p1");
  spec.population.scale = 0.002;
  spec.campaign.trials = 2;
  spec.campaign.workers = 2;

  std::ostringstream sequential;
  for (const std::uint64_t seed : spec.trial_seeds()) {
    CampaignConfig config = spec.to_campaign_config();
    config.seed = seed;
    measure::JsonExportSink sink(sequential);
    auto engine = CampaignEngine::create(config);
    ASSERT_TRUE(engine.has_value()) << engine.error();
    engine->run(sink);
  }

  std::ostringstream parallel;
  measure::JsonExportSink sink(parallel);
  runtime::ParallelTrialRunner runner({.workers = spec.campaign.workers});
  auto outcome = runner.run(
      runtime::ParallelTrialRunner::seed_sweep(spec.to_campaign_config(),
                                               spec.trial_seeds()),
      sink);
  ASSERT_TRUE(outcome.has_value()) << outcome.error();
  EXPECT_EQ(parallel.str(), sequential.str());
}

}  // namespace
}  // namespace ipfs::scenario
