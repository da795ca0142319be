// Unit tests for the churn-calibration module (analysis/calibration.hpp):
// censored-MLE fitter recovery on synthetic draws from each distribution
// family, KS-based family selection with the parsimony tie-break, the
// goodness-of-fit statistics against analytic oracles, bit-exact agreement
// of the fitters with a straightforward reference implementation, the
// first-document rule, the strict malformed-trace corpus, and a seeded
// differential check of the streaming trace reader against the DOM path
// it replaced.
#include "analysis/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <expected>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "scenario/churn.hpp"

namespace ipfs::analysis::calibrate {
namespace {

using scenario::SessionDistribution;

/// `count` uncensored draws from `dist` (deterministic per seed).
std::vector<Observation> draw(const SessionDistribution& dist,
                              std::uint64_t seed, std::size_t count) {
  common::Rng rng(seed);
  std::vector<Observation> sample;
  sample.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sample.push_back({dist.sample(rng), false});
  }
  return sample;
}

/// Right-censor every draw above `horizon_ms` at the horizon, as a trace
/// that ends at a fixed time would.
std::vector<Observation> censor_at(std::vector<Observation> sample,
                                   double horizon_ms) {
  for (Observation& obs : sample) {
    if (obs.value_ms > horizon_ms) {
      obs.value_ms = horizon_ms;
      obs.censored = true;
    }
  }
  return sample;
}

constexpr std::uint64_t kSeeds[] = {7, 20211213, 987654321};

// ---- fitter recovery (3 seeds per family) ----------------------------------

TEST(CalibrationFit, RecoversExponentialParameters) {
  const auto truth = SessionDistribution::exponential(3.6e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto fit = fit_exponential(draw(truth, seed, 4000));
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.mean_ms, truth.mean_ms, 0.05 * truth.mean_ms)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, RecoversWeibullParameters) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto fit = fit_weibull(draw(truth, seed, 4000));
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.shape, truth.shape, 0.05) << "seed " << seed;
    EXPECT_NEAR(fit.dist.scale_ms, truth.scale_ms, 0.10 * truth.scale_ms)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, RecoversLognormalParameters) {
  const auto truth = SessionDistribution::lognormal(7.2e6, 1.1);
  for (const std::uint64_t seed : kSeeds) {
    const auto fit = fit_lognormal(draw(truth, seed, 4000));
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.median_ms, truth.median_ms, 0.10 * truth.median_ms)
        << "seed " << seed;
    EXPECT_NEAR(fit.dist.sigma, truth.sigma, 0.05 * truth.sigma)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, SelectsTheTrueFamilyByKs) {
  const SessionDistribution families[] = {
      SessionDistribution::exponential(3.6e6),
      SessionDistribution::weibull(0.55, 7.2e6),
      SessionDistribution::lognormal(7.2e6, 1.1),
  };
  for (const SessionDistribution& truth : families) {
    for (const std::uint64_t seed : kSeeds) {
      const auto selection = select_family(draw(truth, seed, 4000));
      ASSERT_TRUE(selection.any_ok());
      EXPECT_EQ(selection.selected, scenario::to_string(truth.kind))
          << "seed " << seed;
    }
  }
}

// ---- right-censoring -------------------------------------------------------

TEST(CalibrationFit, CensoredExponentialMleIsUnbiased) {
  // Censor at the mean: ~37% of the sample is right-censored.  The
  // censored MLE (total exposure / completed events) must still recover
  // the mean; the naive mean over the recorded values sits far below it.
  const auto truth = SessionDistribution::exponential(3.6e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto sample = censor_at(draw(truth, seed, 4000), truth.mean_ms);
    double naive = 0.0;
    for (const Observation& obs : sample) naive += obs.value_ms;
    naive /= static_cast<double>(sample.size());

    const auto fit = fit_exponential(sample);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.mean_ms, truth.mean_ms, 0.08 * truth.mean_ms)
        << "seed " << seed;
    EXPECT_LT(naive, 0.75 * truth.mean_ms);  // the bias the MLE corrects
  }
}

TEST(CalibrationFit, CensoredWeibullMleRecoversTheShape) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  for (const std::uint64_t seed : kSeeds) {
    const auto sample =
        censor_at(draw(truth, seed, 4000), truth.analytic_mean() * 2.0);
    const auto fit = fit_weibull(sample);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.shape, truth.shape, 0.08) << "seed " << seed;
    EXPECT_NEAR(fit.dist.scale_ms, truth.scale_ms, 0.15 * truth.scale_ms)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, CensoredLognormalEmRecoversTheParameters) {
  const auto truth = SessionDistribution::lognormal(7.2e6, 1.1);
  for (const std::uint64_t seed : kSeeds) {
    const auto sample =
        censor_at(draw(truth, seed, 4000), truth.analytic_mean() * 2.0);
    const auto fit = fit_lognormal(sample);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.dist.median_ms, truth.median_ms, 0.12 * truth.median_ms)
        << "seed " << seed;
    EXPECT_NEAR(fit.dist.sigma, truth.sigma, 0.10 * truth.sigma)
        << "seed " << seed;
  }
}

TEST(CalibrationFit, TooFewUncensoredObservationsFailsCleanly) {
  std::vector<Observation> sample;
  for (int i = 0; i < 10; ++i) sample.push_back({1000.0 * (i + 1), true});
  sample.push_back({5000.0, false});
  for (const FitResult& fit :
       {fit_exponential(sample), fit_weibull(sample), fit_lognormal(sample)}) {
    EXPECT_FALSE(fit.ok);
    EXPECT_NE(fit.note.find("uncensored"), std::string::npos);
  }
  EXPECT_FALSE(select_family(sample).any_ok());
}

// ---- goodness-of-fit statistics --------------------------------------------

TEST(CalibrationStats, CdfMatchesTheAnalyticMedianOracle) {
  const SessionDistribution families[] = {
      SessionDistribution::exponential(3.6e6),
      SessionDistribution::weibull(0.55, 7.2e6),
      SessionDistribution::lognormal(7.2e6, 1.1),
  };
  for (const SessionDistribution& dist : families) {
    EXPECT_NEAR(distribution_cdf(dist, dist.analytic_median()), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(distribution_cdf(dist, 0.0), 0.0);
  }
}

TEST(CalibrationStats, KsIsSmallForTheTrueFamilyAndLargeOtherwise) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  const auto sample = draw(truth, 42, 4000);
  EXPECT_LT(ks_statistic(sample, truth), 0.05);
  EXPECT_GT(ks_statistic(sample, SessionDistribution::exponential(1000.0)),
            0.5);
}

TEST(CalibrationStats, TwoSampleKsBounds) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(two_sample_ks(a, a), 0.0);
  EXPECT_DOUBLE_EQ(two_sample_ks({1, 2, 3}, {100, 200, 300}), 1.0);
  EXPECT_NEAR(two_sample_ks({1, 2, 3, 4}, {3, 4, 5, 6}), 0.5, 1e-12);
}

// ---- bit-exact oracle ------------------------------------------------------

// The fitters evaluate pow/log/CDF terms once per distinct value, stop the
// Weibull bisection at its fixed point and share one sorted sample between
// the statistics.  None of that may move a bit: the reference below is the
// direct form (one pow and one log per observation per profile step, 200
// bisection steps, a fresh sort and two CDF calls per index for every
// statistic), and every fitted parameter, KS and AD must match it exactly.
namespace reference {

double normal_pdf(double x) {
  static const double kInvSqrt2Pi = 1.0 / std::sqrt(2.0 * std::acos(-1.0));
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

double inverse_mills(double a) {
  if (a > 6.0) return a + 1.0 / a;
  const double tail = 0.5 * std::erfc(a / std::sqrt(2.0));
  if (tail <= 0.0) return a + 1.0 / std::max(a, 1.0);
  return normal_pdf(a) / tail;
}

std::vector<double> sorted_uncensored(const std::vector<Observation>& sample) {
  std::vector<double> values;
  values.reserve(sample.size());
  for (const Observation& obs : sample) {
    if (!obs.censored) values.push_back(std::max(obs.value_ms, 1.0));
  }
  std::sort(values.begin(), values.end());
  return values;
}

double ks_statistic(const std::vector<Observation>& sample,
                    const SessionDistribution& dist) {
  const std::vector<double> values = sorted_uncensored(sample);
  if (values.empty()) return 1.0;
  const double n = static_cast<double>(values.size());
  double d = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double f = distribution_cdf(dist, values[i]);
    d = std::max(d, std::abs(static_cast<double>(i + 1) / n - f));
    d = std::max(d, std::abs(f - static_cast<double>(i) / n));
  }
  return d;
}

double ad_statistic(const std::vector<Observation>& sample,
                    const SessionDistribution& dist) {
  const std::vector<double> values = sorted_uncensored(sample);
  if (values.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t n = values.size();
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lower =
        std::clamp(distribution_cdf(dist, values[i]), 1e-12, 1.0 - 1e-12);
    const double upper = std::clamp(distribution_cdf(dist, values[n - 1 - i]),
                                    1e-12, 1.0 - 1e-12);
    sum += static_cast<double>(2 * i + 1) *
           (std::log(lower) + std::log(1.0 - upper));
  }
  return -static_cast<double>(n) - sum / static_cast<double>(n);
}

FitResult failed_fit(SessionDistribution::Kind kind, std::string note) {
  FitResult fit;
  fit.dist.kind = kind;
  fit.ok = false;
  fit.note = std::move(note);
  return fit;
}

FitResult finish_fit(SessionDistribution dist,
                     const std::vector<Observation>& sample) {
  const double mean = dist.analytic_mean();
  const double median = dist.analytic_median();
  if (!std::isfinite(mean) || mean <= 0.0 || !std::isfinite(median) ||
      median <= 0.0) {
    return failed_fit(dist.kind, "degenerate parameters (analytic oracle)");
  }
  FitResult fit;
  fit.dist = dist;
  fit.ks = reference::ks_statistic(sample, dist);
  fit.ad = reference::ad_statistic(sample, dist);
  fit.ok = true;
  return fit;
}

FitResult fit_weibull(const std::vector<Observation>& sample) {
  std::vector<double> values;
  std::vector<double> completed;
  double max_value = 0.0;
  for (const Observation& obs : sample) {
    max_value = std::max(max_value, std::max(obs.value_ms, 1.0));
  }
  for (const Observation& obs : sample) {
    const double v = std::max(obs.value_ms, 1.0) / max_value;
    values.push_back(v);
    if (!obs.censored) completed.push_back(v);
  }
  if (completed.size() < kMinUncensored) {
    return failed_fit(SessionDistribution::Kind::kWeibull,
                      "needs >= " + std::to_string(kMinUncensored) +
                          " uncensored observations, got " +
                          std::to_string(completed.size()));
  }
  const double m = static_cast<double>(completed.size());
  double mean_log_completed = 0.0;
  for (const double v : completed) mean_log_completed += std::log(v);
  mean_log_completed /= m;
  auto profile = [&](double k) {
    double weighted_log = 0.0;
    double power_sum = 0.0;
    for (const double v : values) {
      const double p = std::pow(v, k);
      weighted_log += p * std::log(v);
      power_sum += p;
    }
    return weighted_log / power_sum - 1.0 / k - mean_log_completed;
  };
  double lo = 1e-3;
  double hi = 100.0;
  if (!(profile(lo) < 0.0) || !(profile(hi) > 0.0)) {
    return failed_fit(SessionDistribution::Kind::kWeibull,
                      "profile-likelihood estimator did not converge");
  }
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (profile(mid) < 0.0 ? lo : hi) = mid;
  }
  const double shape = 0.5 * (lo + hi);
  double power_sum = 0.0;
  for (const double v : values) power_sum += std::pow(v, shape);
  const double scale = max_value * std::pow(power_sum / m, 1.0 / shape);
  return finish_fit(SessionDistribution::weibull(shape, scale), sample);
}

FitResult fit_lognormal(const std::vector<Observation>& sample) {
  std::vector<double> completed_log;
  std::vector<double> censored_log;
  for (const Observation& obs : sample) {
    const double x = std::log(std::max(obs.value_ms, 1.0));
    (obs.censored ? censored_log : completed_log).push_back(x);
  }
  if (completed_log.size() < kMinUncensored) {
    return failed_fit(SessionDistribution::Kind::kLognormal,
                      "needs >= " + std::to_string(kMinUncensored) +
                          " uncensored observations, got " +
                          std::to_string(completed_log.size()));
  }
  const double n =
      static_cast<double>(completed_log.size() + censored_log.size());
  double mu = 0.0;
  for (const double x : completed_log) mu += x;
  mu /= static_cast<double>(completed_log.size());
  double var = 0.0;
  for (const double x : completed_log) var += (x - mu) * (x - mu);
  var /= static_cast<double>(completed_log.size());
  double sigma = std::max(std::sqrt(var), 1e-3);
  for (int iter = 0; iter < 500 && !censored_log.empty(); ++iter) {
    double s1 = 0.0;
    double s2 = 0.0;
    for (const double x : completed_log) {
      s1 += x;
      s2 += x * x;
    }
    for (const double c : censored_log) {
      const double a = (c - mu) / sigma;
      const double h = inverse_mills(a);
      s1 += mu + sigma * h;
      s2 += mu * mu + sigma * sigma + sigma * (c + mu) * h;
    }
    const double next_mu = s1 / n;
    const double next_var = std::max(s2 / n - next_mu * next_mu, 1e-12);
    const double next_sigma = std::sqrt(next_var);
    const double delta =
        std::abs(next_mu - mu) + std::abs(next_sigma - sigma);
    mu = next_mu;
    sigma = next_sigma;
    if (delta < 1e-12) break;
  }
  return finish_fit(SessionDistribution::lognormal(std::exp(mu), sigma), sample);
}

}  // namespace reference

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const FitResult& got, const FitResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.ok, want.ok) << label;
  EXPECT_EQ(got.note, want.note) << label;
  EXPECT_EQ(got.dist.kind, want.dist.kind) << label;
  EXPECT_EQ(bits(got.dist.mean_ms), bits(want.dist.mean_ms)) << label;
  EXPECT_EQ(bits(got.dist.shape), bits(want.dist.shape)) << label;
  EXPECT_EQ(bits(got.dist.scale_ms), bits(want.dist.scale_ms)) << label;
  EXPECT_EQ(bits(got.dist.median_ms), bits(want.dist.median_ms)) << label;
  EXPECT_EQ(bits(got.dist.sigma), bits(want.dist.sigma)) << label;
  EXPECT_EQ(bits(got.ks), bits(want.ks)) << label;
  EXPECT_EQ(bits(got.ad), bits(want.ad)) << label;
}

/// Every fit of `sample`, standalone and through `select_family` (which
/// shares one sorted sample between the three fits), against the
/// reference.  The exponential estimator has no reference copy: its
/// parameter is one sum, so only its statistics are checked.
void expect_matches_reference(const std::vector<Observation>& sample,
                              const std::string& label) {
  const FitResult weibull = reference::fit_weibull(sample);
  const FitResult lognormal = reference::fit_lognormal(sample);
  const FamilySelection selection = select_family(sample);
  expect_bit_identical(fit_weibull(sample), weibull, label + " weibull");
  expect_bit_identical(selection.weibull, weibull, label + " selected weibull");
  expect_bit_identical(fit_lognormal(sample), lognormal, label + " lognormal");
  expect_bit_identical(selection.lognormal, lognormal,
                       label + " selected lognormal");
  for (const FitResult& exponential :
       {fit_exponential(sample), selection.exponential}) {
    if (!exponential.ok) continue;
    EXPECT_EQ(bits(exponential.ks),
              bits(reference::ks_statistic(sample, exponential.dist)))
        << label;
    EXPECT_EQ(bits(exponential.ad),
              bits(reference::ad_statistic(sample, exponential.dist)))
        << label;
  }
  for (const FitResult* fit : {&weibull, &lognormal}) {
    EXPECT_EQ(bits(ks_statistic(sample, fit->dist)),
              bits(reference::ks_statistic(sample, fit->dist)))
        << label;
    EXPECT_EQ(bits(ad_statistic(sample, fit->dist)),
              bits(reference::ad_statistic(sample, fit->dist)))
        << label;
  }
}

/// `sample` rounded up to a 30 s grid, as a trace's polling interval
/// leaves it: few distinct values, many ties.
std::vector<Observation> on_grid(std::vector<Observation> sample) {
  constexpr double kGridMs = 30'000.0;
  for (Observation& obs : sample) {
    obs.value_ms = kGridMs * std::ceil(obs.value_ms / kGridMs);
  }
  return sample;
}

const SessionDistribution kOracleFamilies[] = {
    SessionDistribution::exponential(3.6e6),
    SessionDistribution::weibull(0.55, 7.2e6),
    SessionDistribution::lognormal(7.2e6, 1.1),
};

TEST(CalibrationOracle, ContinuousDrawsMatchBitForBit) {
  for (const SessionDistribution& truth : kOracleFamilies) {
    for (const std::uint64_t seed : kSeeds) {
      const auto sample = draw(truth, seed, 2000);
      const std::string label =
          std::string(scenario::to_string(truth.kind)) + " seed " +
          std::to_string(seed);
      expect_matches_reference(sample, label);
      expect_matches_reference(censor_at(sample, truth.analytic_mean()),
                               label + " censored");
    }
  }
}

TEST(CalibrationOracle, TiesOnAThirtySecondGridMatchBitForBit) {
  for (const SessionDistribution& truth : kOracleFamilies) {
    for (const std::uint64_t seed : kSeeds) {
      const auto sample = on_grid(draw(truth, seed, 2000));
      const std::string label =
          std::string(scenario::to_string(truth.kind)) + " grid seed " +
          std::to_string(seed);
      expect_matches_reference(sample, label);
      expect_matches_reference(
          censor_at(sample, 30'000.0 * std::ceil(truth.analytic_mean() / 30'000.0)),
          label + " censored");
    }
  }
}

TEST(CalibrationOracle, ExactlyTheMinimumCompletedValuesMatchBitForBit) {
  const auto truth = SessionDistribution::weibull(0.55, 7.2e6);
  for (const std::uint64_t seed : kSeeds) {
    auto sample = draw(truth, seed, 40);
    // Censor all but the first kMinUncensored observations.
    for (std::size_t i = kMinUncensored; i < sample.size(); ++i) {
      sample[i].censored = true;
    }
    expect_matches_reference(sample, "minimum seed " + std::to_string(seed));
    sample.resize(kMinUncensored);
    expect_matches_reference(sample,
                             "minimum uncensored only seed " + std::to_string(seed));
  }
}

TEST(CalibrationOracle, ASingleDistinctValueMatchesBitForBit) {
  const std::vector<Observation> uncensored(12, Observation{60'000.0, false});
  expect_matches_reference(uncensored, "single value");
  std::vector<Observation> mixed = uncensored;
  for (std::size_t i = 0; i < mixed.size(); i += 2) mixed[i].censored = true;
  expect_matches_reference(mixed, "single value, half censored");
}

// ---- the first document of a stream ----------------------------------------

TEST(CalibrationTrace, ReadsOnlyTheFirstDocument) {
  const std::string first =
      "{\n  \"vantage\": \"}{ not a brace\",\n  \"measurement_start_ms\": 0,\n"
      "  \"measurement_end_ms\": 9,\n  \"peers\": [{\"pid\": \"Qm\", "
      "\"first_seen_ms\": 1, \"last_seen_ms\": 2}]\n}";
  const auto dataset = parse_trace(first + "\n{\n  \"second\": 1\n}\n} not JSON");
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  EXPECT_EQ(dataset->vantage, "}{ not a brace");
  EXPECT_EQ(dataset->peer_count(), 1u);
}

TEST(CalibrationTrace, EscapedQuotesDoNotEndTheFirstDocument) {
  const auto dataset = parse_trace(
      "{\"vantage\": \"\\\"}\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 9, \"peers\": [{\"pid\": \"Qm\", "
      "\"first_seen_ms\": 1, \"last_seen_ms\": 2}]}{\"b\": 2}");
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  EXPECT_EQ(dataset->vantage, "\"}");
}

// ---- the DOM oracle --------------------------------------------------------

// `parse_trace` reads the trace in one streaming pass.  The reference below
// is the DOM path it replaced, copied verbatim: the recursive-descent
// parser `JsonValue::parse` used to run, the splitter that cut the first
// document out of the stream, and the schema walk over the tree.  The
// streaming path must give the same `Dataset` (same export bytes) or the
// same error text on every input; the one intended difference is that a
// syntax error's line:column now counts leading blanks too.
namespace dom {

using common::JsonValue;
using common::SimTime;


/// Recursive-descent parser over a string_view with line:column tracking.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::expected<JsonValue, std::string> run() {
    skip_whitespace();
    auto value = parse_value();
    if (!value) return value;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing content after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[nodiscard]] std::unexpected<std::string> fail(std::string message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    return std::unexpected(std::to_string(line) + ":" + std::to_string(column) +
                           ": " + std::move(message));
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::expected<JsonValue, std::string> parse_value() {
    if (at_end()) return fail("unexpected end of input");
    if (depth_ > kMaxDepth) return fail("nesting deeper than 128 levels");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        auto text = parse_string();
        if (!text) return std::unexpected(std::move(text).error());
        return JsonValue::make_string(std::move(*text));
      }
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        return fail("invalid literal (expected 'true')");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        return fail("invalid literal (expected 'false')");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        return fail("invalid literal (expected 'null')");
      default: return parse_number();
    }
  }

  std::expected<JsonValue, std::string> parse_object() {
    ++pos_;  // '{'
    ++depth_;
    JsonValue::Object members;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') return fail("expected '\"' to start object key");
      auto key = parse_string();
      if (!key) return std::unexpected(std::move(key).error());
      skip_whitespace();
      if (at_end() || peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_whitespace();
      auto value = parse_value();
      if (!value) return value;
      members.emplace_back(std::move(*key), std::move(*value));
      skip_whitespace();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        --depth_;
        return JsonValue::make_object(std::move(members));
      }
      return fail("expected ',' or '}' in object");
    }
  }

  std::expected<JsonValue, std::string> parse_array() {
    ++pos_;  // '['
    ++depth_;
    JsonValue::Array elements;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue::make_array(std::move(elements));
    }
    while (true) {
      skip_whitespace();
      auto value = parse_value();
      if (!value) return value;
      elements.push_back(std::move(*value));
      skip_whitespace();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        --depth_;
        return JsonValue::make_array(std::move(elements));
      }
      return fail("expected ',' or ']' in array");
    }
  }

  std::expected<std::string, std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      // Append the run up to the next quote, escape or control character
      // in one piece.
      const std::size_t run = pos_;
      while (!at_end() && peek() != '"' && peek() != '\\' &&
             static_cast<unsigned char>(peek()) >= 0x20) {
        ++pos_;
      }
      out.append(text_.substr(run, pos_ - run));
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        --pos_;
        return fail("unescaped control character in string");
      }
      if (at_end()) return fail("unterminated escape sequence");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // scenario files are ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  std::expected<JsonValue, std::string> parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      return fail("invalid value");
    }
    const std::size_t int_part = pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (text_[int_part] == '0' && pos_ - int_part > 1) {
      return fail("leading zeros are not allowed");  // RFC 8259
    }
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit expected after decimal point");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("digit expected in exponent");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (integral) {
      const bool negative = text_[start] == '-';
      std::uint64_t magnitude = 0;
      const std::errc error =
          std::from_chars(text_.data() + (negative ? start + 1 : start),
                          text_.data() + pos_, magnitude)
              .ec;
      const auto int64_min_magnitude =
          static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + 1;
      if (error == std::errc()) {
        if (!negative) return JsonValue::make_unsigned(magnitude);
        if (magnitude <= int64_min_magnitude) {
          return JsonValue::make_integer(
              magnitude == int64_min_magnitude
                  ? std::numeric_limits<std::int64_t>::min()
                  : -static_cast<std::int64_t>(magnitude));
        }
      }
      // Out-of-range integers fall back to double semantics.
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    const double parsed = std::strtod(lexeme.c_str(), nullptr);
    return JsonValue::make_number(parsed);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

using ParseError = std::optional<std::string>;

std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

/// A field path such as "peers[3].agents[0]", rendered only when an error
/// names it.
struct FieldPath {
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  std::string_view key;           ///< "" at the document root
  std::size_t index = kNoIndex;   ///< position in the array under `key`
  const FieldPath* parent = nullptr;

  [[nodiscard]] std::string str() const {
    std::string path = join(parent == nullptr ? std::string() : parent->str(), key);
    if (index != kNoIndex) path += "[" + std::to_string(index) + "]";
    return path;
  }
};

ParseError check_keys(const JsonValue& value, const FieldPath& path,
                      std::initializer_list<std::string_view> allowed) {
  for (const JsonValue::Member& member : value.as_object()) {
    bool known = false;
    for (const std::string_view key : allowed) {
      if (member.first == key) {
        known = true;
        break;
      }
    }
    if (!known) return path.str() + ": unknown field '" + member.first + "'";
  }
  return std::nullopt;
}

ParseError require_object(const JsonValue& value, const FieldPath& path) {
  if (value.is_object()) return std::nullopt;
  return path.str() + ": expected an object, got " +
         std::string(value.type_name());
}

ParseError require_string(const JsonValue& object, std::string_view key,
                          const FieldPath& path, std::string& out) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return join(path.str(), key) + ": missing required field";
  if (!value->is_string()) return join(path.str(), key) + ": expected a string";
  out = value->as_string();
  return std::nullopt;
}

ParseError require_time(const JsonValue& object, std::string_view key,
                        const FieldPath& path, SimTime& out) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return join(path.str(), key) + ": missing required field";
  const auto integral = value->is_number() ? value->as_int64() : std::nullopt;
  if (!integral) return join(path.str(), key) + ": expected an integer";
  out = *integral;
  return std::nullopt;
}

ParseError optional_bool(const JsonValue& object, std::string_view key,
                         const FieldPath& path, bool& out) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return std::nullopt;
  if (!value->is_bool()) return join(path.str(), key) + ": expected true or false";
  out = value->as_bool();
  return std::nullopt;
}

ParseError require_array(const JsonValue& object, std::string_view key,
                         const FieldPath& path, const JsonValue*& out) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return join(path.str(), key) + ": missing required field";
  if (!value->is_array()) return join(path.str(), key) + ": expected an array";
  out = value;
  return std::nullopt;
}

ParseError parse_peer(const JsonValue& value, const FieldPath& path,
                      SimTime& first_seen, SimTime& last_seen,
                      bool& ever_dht_server,
                      std::vector<measure::AgentEvent>& agents) {
  if (auto error = require_object(value, path)) return error;
  if (auto error = check_keys(value, path,
                              {"pid", "first_seen_ms", "last_seen_ms",
                               "ever_dht_server", "agents", "protocols_ever",
                               "connected_ips"})) {
    return error;
  }
  std::string pid;
  if (auto error = require_string(value, "pid", path, pid)) return error;
  if (auto error = require_time(value, "first_seen_ms", path, first_seen)) {
    return error;
  }
  if (auto error = require_time(value, "last_seen_ms", path, last_seen)) {
    return error;
  }
  if (last_seen < first_seen) {
    return join(path.str(), "last_seen_ms") + ": must be >= first_seen_ms";
  }
  if (auto error = optional_bool(value, "ever_dht_server", path,
                                 ever_dht_server)) {
    return error;
  }
  if (const JsonValue* list = value.find("agents")) {
    if (!list->is_array()) {
      return join(path.str(), "agents") + ": expected an array";
    }
    for (std::size_t i = 0; i < list->as_array().size(); ++i) {
      const JsonValue& entry = list->as_array()[i];
      const FieldPath entry_path{"agents", i, &path};
      if (auto error = require_object(entry, entry_path)) return error;
      if (auto error = check_keys(entry, entry_path, {"at_ms", "agent"})) {
        return error;
      }
      measure::AgentEvent event;
      if (auto error = require_time(entry, "at_ms", entry_path, event.at)) {
        return error;
      }
      std::string agent;
      if (auto error = require_string(entry, "agent", entry_path, agent)) {
        return error;
      }
      event.agent = common::Symbol(agent);
      agents.push_back(event);
    }
  }
  for (const std::string_view key : {"protocols_ever", "connected_ips"}) {
    if (const JsonValue* list = value.find(key)) {
      if (!list->is_array()) return join(path.str(), key) + ": expected an array";
      for (std::size_t i = 0; i < list->as_array().size(); ++i) {
        if (!list->as_array()[i].is_string()) {
          return FieldPath{key, i, &path}.str() + ": expected a string";
        }
      }
    }
  }
  return std::nullopt;
}

std::string_view first_document(std::string_view text) {
  std::size_t start = 0;
  while (start < text.size() &&
         (text[start] == ' ' || text[start] == '\t' || text[start] == '\n' ||
          text[start] == '\r')) {
    ++start;
  }
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = start; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      if (depth == 0) return text.substr(start, i - start + 1);
    }
  }
  return text.substr(start);  // unbalanced — let the parser report it
}

std::expected<measure::Dataset, std::string> parse_trace(std::string_view text) {
  const auto parsed = Parser(first_document(text)).run();
  if (!parsed) return std::unexpected("trace: " + parsed.error());
  const JsonValue& root = *parsed;
  const FieldPath trace_path{"trace"};
  const FieldPath root_path;
  if (auto error = require_object(root, trace_path)) {
    return std::unexpected(*error);
  }
  if (auto error = check_keys(root, trace_path,
                              {"vantage", "measurement_start_ms",
                               "measurement_end_ms", "peers", "connections"})) {
    return std::unexpected(*error);
  }
  measure::Dataset dataset;
  if (auto error = require_string(root, "vantage", root_path, dataset.vantage)) {
    return std::unexpected(*error);
  }
  if (auto error = require_time(root, "measurement_start_ms", root_path,
                                dataset.measurement_start)) {
    return std::unexpected(*error);
  }
  if (auto error = require_time(root, "measurement_end_ms", root_path,
                                dataset.measurement_end)) {
    return std::unexpected(*error);
  }
  if (dataset.measurement_end < dataset.measurement_start) {
    return std::unexpected(
        "measurement_end_ms: must be >= measurement_start_ms");
  }
  const JsonValue* peers = nullptr;
  if (auto error = require_array(root, "peers", root_path, peers)) {
    return std::unexpected(*error);
  }
  if (peers->as_array().empty()) {
    return std::unexpected("peers: dataset is empty — nothing to calibrate");
  }
  for (std::size_t i = 0; i < peers->as_array().size(); ++i) {
    const FieldPath path{"peers", i};
    SimTime first_seen = 0;
    SimTime last_seen = 0;
    bool ever_dht_server = false;
    std::vector<measure::AgentEvent> agents;
    if (auto error = parse_peer(peers->as_array()[i], path, first_seen,
                                last_seen, ever_dht_server, agents)) {
      return std::unexpected(*error);
    }
    // The PID string is identity only here; re-intern a synthetic PeerId
    // per index (PeerIds are opaque hashes, not parseable strings).
    const measure::PeerIndex index =
        dataset.intern(p2p::PeerId::from_seed(i), first_seen);
    measure::PeerRecord& record = dataset.record(index);
    record.first_seen = first_seen;
    record.last_seen = last_seen;
    record.ever_dht_server = ever_dht_server;
    record.agent_history = std::move(agents);
  }
  if (const JsonValue* connections = root.find("connections")) {
    if (!connections->is_array()) {
      return std::unexpected("connections: expected an array");
    }
    for (std::size_t i = 0; i < connections->as_array().size(); ++i) {
      const JsonValue& entry = connections->as_array()[i];
      const FieldPath path{"connections", i};
      if (auto error = require_object(entry, path)) {
        return std::unexpected(*error);
      }
      if (auto error = check_keys(
              entry, path, {"peer", "opened_ms", "closed_ms", "direction",
                            "reason"})) {
        return std::unexpected(*error);
      }
      measure::ConnRecord record;
      SimTime peer_index = 0;
      if (auto error = require_time(entry, "peer", path, peer_index)) {
        return std::unexpected(*error);
      }
      if (peer_index < 0 ||
          static_cast<std::size_t>(peer_index) >= dataset.peer_count()) {
        return std::unexpected(join(path.str(), "peer") + ": index out of range");
      }
      record.peer = static_cast<measure::PeerIndex>(peer_index);
      if (auto error = require_time(entry, "opened_ms", path, record.opened)) {
        return std::unexpected(*error);
      }
      if (auto error = require_time(entry, "closed_ms", path, record.closed)) {
        return std::unexpected(*error);
      }
      if (record.closed < record.opened) {
        return std::unexpected(join(path.str(), "closed_ms") +
                               ": must be >= opened_ms");
      }
      for (const std::string_view key : {"direction", "reason"}) {
        if (const JsonValue* field = entry.find(key)) {
          if (!field->is_string()) {
            return std::unexpected(join(path.str(), key) + ": expected a string");
          }
        }
      }
      dataset.add_connection(record);
    }
  } else {
    // Peer-record-only traces (the JsonExportSink default): approximate
    // each peer's presence by one connection spanning first..last seen.
    for (measure::PeerIndex i = 0; i < dataset.peer_count(); ++i) {
      const measure::PeerRecord& record = dataset.record(i);
      measure::ConnRecord conn;
      conn.peer = i;
      conn.opened = record.first_seen;
      conn.closed = record.last_seen;
      dataset.add_connection(conn);
    }
  }
  return dataset;
}


}  // namespace dom

// ---- the malformed-trace corpus --------------------------------------------

/// A minimal two-peer trace; tests mutate pieces of it.
std::string valid_trace(const std::string& peers_json,
                        const std::string& extra = "") {
  return "{\"vantage\": \"go-ipfs\", \"measurement_start_ms\": 0, "
         "\"measurement_end_ms\": 86400000, \"peers\": [" +
         peers_json + "]" + extra + "}";
}

std::string peer_json(const std::string& overrides = "") {
  return "{\"pid\": \"QmPeer\", \"first_seen_ms\": 1000, "
         "\"last_seen_ms\": 2000" +
         overrides + "}";
}

TEST(CalibrationTrace, ParsesAValidTraceAndSynthesizesConnections) {
  const auto dataset = parse_trace(valid_trace(peer_json()));
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  EXPECT_EQ(dataset->vantage, "go-ipfs");
  EXPECT_EQ(dataset->peer_count(), 1u);
  // No "connections" array: presence approximated from first/last seen.
  ASSERT_EQ(dataset->connection_count(), 1u);
  EXPECT_EQ(dataset->connections()[0].opened, 1000);
  EXPECT_EQ(dataset->connections()[0].closed, 2000);
}

TEST(CalibrationTrace, ParsesExplicitConnections) {
  const auto dataset = parse_trace(valid_trace(
      peer_json(), ", \"connections\": [{\"peer\": 0, \"opened_ms\": 1000, "
                   "\"closed_ms\": 1500, \"direction\": \"inbound\", "
                   "\"reason\": \"none\"}]"));
  ASSERT_TRUE(dataset.has_value()) << dataset.error();
  ASSERT_EQ(dataset->connection_count(), 1u);
  EXPECT_EQ(dataset->connections()[0].closed, 1500);
}

TEST(CalibrationTrace, RejectsMissingRequiredFields) {
  const auto no_last_seen = parse_trace(valid_trace(
      "{\"pid\": \"QmPeer\", \"first_seen_ms\": 1000}"));
  ASSERT_FALSE(no_last_seen.has_value());
  EXPECT_EQ(no_last_seen.error(),
            "peers[0].last_seen_ms: missing required field");

  const auto no_vantage = parse_trace(
      "{\"measurement_start_ms\": 0, \"measurement_end_ms\": 1, "
      "\"peers\": [" + peer_json() + "]}");
  ASSERT_FALSE(no_vantage.has_value());
  EXPECT_EQ(no_vantage.error(), "vantage: missing required field");
}

TEST(CalibrationTrace, RejectsNonMonotoneSeenTimes) {
  const auto bad = parse_trace(valid_trace(
      "{\"pid\": \"QmPeer\", \"first_seen_ms\": 2000, \"last_seen_ms\": 1000}"));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "peers[0].last_seen_ms: must be >= first_seen_ms");
}

TEST(CalibrationTrace, RejectsNonMonotoneMeasurementWindow) {
  const auto bad = parse_trace(
      "{\"vantage\": \"v\", \"measurement_start_ms\": 10, "
      "\"measurement_end_ms\": 5, \"peers\": [" + peer_json() + "]}");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "measurement_end_ms: must be >= measurement_start_ms");
}

TEST(CalibrationTrace, RejectsAnEmptyDataset) {
  const auto empty = parse_trace(valid_trace(""));
  ASSERT_FALSE(empty.has_value());
  EXPECT_NE(empty.error().find("dataset is empty"), std::string::npos);
}

TEST(CalibrationTrace, RejectsUnknownFields) {
  const auto top = parse_trace(
      "{\"vantage\": \"v\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 1, \"peers\": [" + peer_json() + "], "
      "\"bogus\": 1}");
  ASSERT_FALSE(top.has_value());
  EXPECT_EQ(top.error(), "trace: unknown field 'bogus'");

  const auto nested = parse_trace(valid_trace(peer_json(", \"typo\": true")));
  ASSERT_FALSE(nested.has_value());
  EXPECT_EQ(nested.error(), "peers[0]: unknown field 'typo'");
}

TEST(CalibrationTrace, RejectsBadConnections) {
  const auto out_of_range = parse_trace(valid_trace(
      peer_json(),
      ", \"connections\": [{\"peer\": 7, \"opened_ms\": 0, \"closed_ms\": 1}]"));
  ASSERT_FALSE(out_of_range.has_value());
  EXPECT_EQ(out_of_range.error(), "connections[0].peer: index out of range");

  const auto inverted = parse_trace(valid_trace(
      peer_json(),
      ", \"connections\": [{\"peer\": 0, \"opened_ms\": 5, \"closed_ms\": 1}]"));
  ASSERT_FALSE(inverted.has_value());
  EXPECT_EQ(inverted.error(), "connections[0].closed_ms: must be >= opened_ms");
}

TEST(CalibrationTrace, RejectsMalformedJson) {
  const auto bad = parse_trace("{\"vantage\": ");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().rfind("trace: ", 0), 0u) << bad.error();
}

TEST(CalibrationTrace, SyntaxErrorPositionsCountLeadingBlanks) {
  // The error is on line 4 of the file; the DOM path counted from the first
  // non-blank byte and reported 2:37.
  const std::string text =
      "\n\n  {\"vantage\": \"v\",\n"
      "\"measurement_start_ms\": 0, \"measurement_end_ms\": x}";
  const auto bad = parse_trace(text);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), "trace: 4:50: invalid value");
  EXPECT_EQ(dom::parse_trace(text).error(), "trace: 2:50: invalid value");
}

TEST(CalibrationTrace, ConnectionsBeforePeersGiveTheSameDataset) {
  const std::string peers = "\"peers\": [" + peer_json() + ", " + peer_json() + "]";
  const std::string connections =
      "\"connections\": [{\"peer\": 1, \"opened_ms\": 1000, \"closed_ms\": 1500}]";
  const std::string head =
      "{\"vantage\": \"v\", \"measurement_start_ms\": 0, \"measurement_end_ms\": 9000, ";
  const auto canonical = parse_trace(head + peers + ", " + connections + "}");
  const auto reordered = parse_trace(head + connections + ", " + peers + "}");
  ASSERT_TRUE(canonical.has_value()) << canonical.error();
  ASSERT_TRUE(reordered.has_value()) << reordered.error();
  std::ostringstream a;
  std::ostringstream b;
  canonical->export_json(a);
  reordered->export_json(b);
  EXPECT_EQ(a.str(), b.str());
  // The range check waits for the peer count, and ranks before the later
  // checks of the same connection.
  const auto out_of_range = parse_trace(
      head + "\"connections\": [{\"peer\": 2, \"opened_ms\": \"x\"}], " + peers + "}");
  ASSERT_FALSE(out_of_range.has_value());
  EXPECT_EQ(out_of_range.error(), "connections[0].peer: index out of range");
}

// ---- differential: streaming parse_trace against the DOM oracle -------------

/// A small trace with every field of the schema, in one of three member
/// layouts, compact or one member per line.
std::string oracle_trace(int layout, bool multiline) {
  std::string peers = "\"peers\": [";
  for (int i = 0; i < 3; ++i) {
    const std::string first = std::to_string(1000 * (i + 1));
    peers += std::string(i == 0 ? "" : ", ") + "{\"pid\": \"QmPeer" + std::to_string(i) +
             "\", \"first_seen_ms\": " + first + ", \"last_seen_ms\": " +
             std::to_string(5000 * (i + 1)) + ", \"ever_dht_server\": " +
             (i == 1 ? "false" : "true") + ", \"agents\": [{\"at_ms\": " + first +
             ", \"agent\": \"go-ipfs/0.8.0/\"}, {\"at_ms\": " + first +
             ", \"agent\": \"go-ipfs/0.9.\\u0031/\"}], \"protocols_ever\": "
             "[\"/ipfs/kad/1.0.0\", \"/ipfs/id/1.0.0\"], \"connected_ips\": "
             "[\"1.2.3." + std::to_string(i) + "\"]}";
  }
  peers += "]";
  const std::string connections =
      "\"connections\": [{\"peer\": 0, \"opened_ms\": 1000, \"closed_ms\": 1500, "
      "\"direction\": \"inbound\", \"reason\": \"none\"}, {\"peer\": 2, "
      "\"opened_ms\": 3000, \"closed_ms\": 9000, \"direction\": \"outbound\", "
      "\"reason\": \"trim\"}]";
  std::string text =
      "{\"vantage\": \"go-ipfs\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 86400000, ";
  if (layout == 0) text += peers + ", " + connections + "}";
  if (layout == 1) text += connections + ", " + peers + "}";
  if (layout == 2) text += peers + "}";
  if (multiline) {
    for (std::size_t at = 0; (at = text.find(", \"", at)) != std::string::npos;) {
      text.replace(at, 2, ",\n  ");
    }
  }
  return text;
}

/// Value-level rewrites: first-wins duplicates, escaped keys, type swaps,
/// unknown keys, number edge cases and schema violations.
const std::vector<std::pair<std::string, std::vector<std::string>>>& rewrites() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>> table = {
      {"\"pid\"",
       {"\"pi\\u0064\"", "\"\\u0070id\"", "\"pid2\"", "\"pid\": 1, \"pid\"",
        "\"pid\": \"a\", \"pid\""}},
      {"\"first_seen_ms\": 1000",
       {"\"first_seen_ms\": 1e3", "\"first_seen_ms\": -0",
        "\"first_seen_ms\": 9223372036854775808",
        "\"first_seen_ms\": -9223372036854775808",
        "\"first_seen_ms\": -9223372036854775809",
        "\"first_seen_ms\": 18446744073709551616", "\"first_seen_ms\": \"1000\"",
        "\"first_seen_ms\": null", "\"first_seen_ms\": 1000.0",
        "\"first_seen_ms\": 1000, \"first_seen_ms\": \"x\"",
        "\"first_seen_ms\": \"x\", \"first_seen_ms\": 1000",
        "\"first_seen_ms\": 01000", "\"fir\\u0073t_seen_ms\": 7"}},
      {"\"last_seen_ms\": 5000",
       {"\"last_seen_ms\": 500", "\"last_seen_ms\": -0", "\"last_seen_ms\": true",
        "\"last_seen_ms\": []", "\"last_seen_ms\": 5E+3"}},
      {"\"ever_dht_server\": true",
       {"\"ever_dht_server\": 1", "\"ever_dht_server\": \"true\"",
        "\"ever_dht_server\": null", "\"ever_dht_server\": tru"}},
      {"\"agents\": [{\"at_ms\": 1000, \"agent\": \"go-ipfs/0.8.0/\"}",
       {"\"agents\": [5", "\"agents\": [{\"at_ms\": \"1000\", \"agent\": \"a\"}",
        "\"agents\": [{\"agent\": \"a\"}", "\"agents\": [{\"at_ms\": 1, \"agent\": 7}",
        "\"agents\": [{\"at_ms\": 1, \"agent\": \"a\", \"x\": 1}",
        "\"agents\": [{\"at_ms\": 1, \"ag\\u0065nt\": \"\\u00e9\\u4e2d\"}",
        "\"agents\": {}, \"agents\": [{\"at_ms\": 1, \"agent\": \"a\"}",
        "\"agents\": [{\"at_ms\": 1, \"agent\": \"a\", \"agent\": 5}"}},
      {"\"protocols_ever\": [",
       {"\"protocols_ever\": [null, ", "\"protocols_ever\": [[], ",
        "\"protocols_ever\": 3, \"protocols_ever\": [",
        "\"protocols_ever\": [\"\\/x\", "}},
      {"\"connected_ips\": [\"1.2.3.0\"]",
       {"\"connected_ips\": \"1.2.3.4\"", "\"connected_ips\": [[\"x\"]]",
        "\"connected_ips\": []", "\"connected_ips\": [\"a\", 5]"}},
      {"\"vantage\": \"go-ipfs\"",
       {"\"vantage\": 1", "\"vantage\": \"a\\u0041\\n\\t\\\"\"",
        "\"vantage\": null, \"vantage\": \"x\"", "\"v\\u0061ntage\": \"x\"",
        "\"vantage\": \"\\u\"", "\"vantage\": \"\\ud800\"", "\"vantage\": \"\\q\"",
        "\"zzz\": 1, \"vantage\": \"x\""}},
      {"\"measurement_start_ms\": 0",
       {"\"measurement_start_ms\": 90000000", "\"measurement_start_ms\": -0",
        "\"measurement_start_ms\": 1e3", "\"measurement_start_ms\": \"0\"",
        "\"measurement_start_ms\": 0, \"measurement_start_ms\": 99999999999"}},
      {"\"measurement_end_ms\": 86400000",
       {"\"measurement_end_ms\": -5", "\"measurement_end_ms\": 86400000.5",
        "\"measurement_end_ms\": 9223372036854775807", "\"measurement_end_ms\": {}"}},
      {"\"peers\": [",
       {"\"peers\": 5, \"peers2\": [", "\"peers\": [7, ", "\"peers\": [[], ",
        "\"bogus\": 1, \"peers\": [", "\"peers\": [], \"peers\": [",
        "\"peers\": [{\"pid\": \"Qm\", \"first_seen_ms\": 1, \"last_seen_ms\": 2}, "}},
      {"\"connections\": [",
       {"\"connections\": [5, ",
        "\"connections\": [{\"peer\": -1, \"opened_ms\": 0, \"closed_ms\": 1}, ",
        "\"connections\": [{\"peer\": 99, \"opened_ms\": 0, \"closed_ms\": 1}, ",
        "\"connections\": [{\"peer\": 0, \"opened_ms\": 5, \"closed_ms\": 1}, ",
        "\"connections\": [{\"peer\": 4294967295, \"opened_ms\": 0, \"closed_ms\": 1}, ",
        "\"connections\": [{\"peer\": 0, \"opened_ms\": 0, \"closed_ms\": 1, "
        "\"direction\": 5}, ",
        "\"connections\": [{\"peer\": \"0\"}, ",
        "\"connections\": [{\"peer\": 9, \"opened_ms\": \"x\", \"closed_ms\": 1}, ",
        "\"connections\": [{\"peer\": 0, \"x\": 1}, ",
        "\"connections\": {}, \"connections\": [", "\"connections\": [], \"c\": ["}},
      {"\"direction\": \"inbound\"",
       {"\"direction\": 3", "\"direction\": null", "\"reason\": 1, \"direction\": \"x\""}},
      {"\"reason\": \"trim\"", {"\"reason\": [\"x\"]", "\"reason\": \"none\", \"peer\": 1"}},
  };
  return table;
}

/// One seeded mutant of `text`: 1-3 edits drawn from byte deletes, inserts
/// and replacements, value rewrites, truncation, deep nesting, leading
/// blanks and trailing documents.
std::string mutate(std::string text, std::mt19937_64& rng) {
  static const std::string kBytes = "{}[]\",:\\ -.0123456789eEtrufalsn\n\t\x01\xff/u";
  static const std::vector<std::string> kTrailing = {
      "\n{\"population_samples\": []}\n", "}", "]{", " x", "\n\"\\u\"", "{\"a\":"};
  static const std::vector<std::string> kLeading = {"\n\n  ", " ", "\t\r\n", "\n"};
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const std::size_t edits = 1 + pick(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = text.empty() ? 0 : pick(text.size());
    switch (pick(10)) {
      case 0: if (!text.empty()) text.erase(at, 1); break;
      case 1: text.insert(at, 1, kBytes[pick(kBytes.size())]); break;
      case 2: if (!text.empty()) text[at] = kBytes[pick(kBytes.size())]; break;
      case 3:
      case 4:
      case 5: {
        const auto& [needle, replacements] = rewrites()[pick(rewrites().size())];
        std::vector<std::size_t> hits;
        for (std::size_t p = 0; (p = text.find(needle, p)) != std::string::npos; ++p) {
          hits.push_back(p);
        }
        if (!hits.empty()) {
          text.replace(hits[pick(hits.size())], needle.size(),
                       replacements[pick(replacements.size())]);
        }
        break;
      }
      case 6: text.resize(at); break;
      case 7: {
        // 128 levels hold values, 129 may be empty, 200 never fit.
        const std::size_t depth = std::array<std::size_t, 4>{127, 128, 129, 200}[pick(4)];
        const std::size_t value = text.find(": ", at);
        if (value != std::string::npos) {
          text.insert(value + 2, std::string(depth, '[') + std::string(depth, ']') + ", ");
          text.insert(value, ": 0, \"deep\"");
        }
        break;
      }
      case 8: text = kLeading[pick(kLeading.size())] + text; break;
      default: text += kTrailing[pick(kTrailing.size())]; break;
    }
  }
  return text;
}

/// `error` ("trace: L:C: ...") with its position counted from the first
/// byte of `text` instead of its first non-blank byte.  Schema errors and
/// texts without leading blanks are returned unchanged.
std::string counted_from_the_first_byte(const std::string& error, std::string_view text) {
  const std::size_t start = text.find_first_not_of(" \t\n\r");
  const std::string_view blanks = text.substr(0, std::min(start, text.size()));
  unsigned line = 0;
  unsigned column = 0;
  int consumed = 0;
  if (blanks.empty() ||
      std::sscanf(error.c_str(), "trace: %u:%u: %n", &line, &column, &consumed) != 2 ||
      consumed == 0) {
    return error;
  }
  const auto newlines = static_cast<unsigned>(std::count(blanks.begin(), blanks.end(), '\n'));
  const std::size_t last = blanks.rfind('\n');
  const auto tail = static_cast<unsigned>(
      last == std::string_view::npos ? blanks.size() : blanks.size() - last - 1);
  if (line == 1) column += tail;
  return "trace: " + std::to_string(line + newlines) + ":" + std::to_string(column) + ": " +
         error.substr(static_cast<std::size_t>(consumed));
}

/// A canonical rendering of a DOM value (type, integer views, bits).
void dump(const common::JsonValue& value, std::string& out) {
  using common::JsonValue;
  switch (value.type()) {
    case JsonValue::Type::kNull: out += 'n'; break;
    case JsonValue::Type::kBool: out += value.as_bool() ? 't' : 'f'; break;
    case JsonValue::Type::kNumber: {
      out += value.is_integer() ? "#i" : "#d";
      out += std::to_string(std::bit_cast<std::uint64_t>(value.as_double()));
      const auto signed_value = value.as_int64();
      const auto unsigned_value = value.as_uint64();
      out += signed_value ? "s" + std::to_string(*signed_value) : "-";
      out += unsigned_value ? "u" + std::to_string(*unsigned_value) : "-";
      break;
    }
    case JsonValue::Type::kString:
      out += "s" + std::to_string(value.as_string().size()) + ":" + value.as_string();
      break;
    case JsonValue::Type::kArray:
      out += '[';
      for (const JsonValue& element : value.as_array()) dump(element, out);
      out += ']';
      break;
    case JsonValue::Type::kObject:
      out += '{';
      for (const auto& [key, member] : value.as_object()) {
        out += std::to_string(key.size()) + ":" + key;
        dump(member, out);
      }
      out += '}';
      break;
  }
}

/// What the DOM parser (`JsonValue::parse` before the pull reader) and
/// the one on top of `JsonReader` make of `text`, rendered comparably.
std::pair<std::string, std::string> both_json_parses(std::string_view text) {
  const auto render = [](const std::expected<common::JsonValue, std::string>& value) {
    std::string out;
    if (value) {
      dump(*value, out);
    } else {
      out = "error " + value.error();
    }
    return out;
  };
  return {render(dom::Parser(text).run()), render(common::JsonValue::parse(text))};
}

struct DifferentialTally {
  std::size_t parsed = 0;
  std::size_t schema_errors = 0;
  std::size_t syntax_errors = 0;
  std::size_t shifted = 0;
};

/// Both trace paths on `text`: the same export bytes, or the same error
/// with the one intended position change.
::testing::AssertionResult same_trace_result(const std::string& text,
                                             DifferentialTally& tally) {
  const auto want = dom::parse_trace(text);
  const auto got = parse_trace(text);
  if (want.has_value() != got.has_value()) {
    return ::testing::AssertionFailure()
           << "DOM " << (want ? "parsed" : want.error()) << ", streaming "
           << (got ? "parsed" : got.error()) << "\ninput: " << text;
  }
  if (want) {
    ++tally.parsed;
    std::ostringstream a;
    std::ostringstream b;
    want->export_json(a);
    got->export_json(b);
    if (a.str() != b.str()) {
      return ::testing::AssertionFailure() << "export bytes differ\ninput: " << text;
    }
    return ::testing::AssertionSuccess();
  }
  const std::string expected = counted_from_the_first_byte(want.error(), text);
  const bool syntax = want.error().rfind("trace: ", 0) == 0 &&
                      want.error().find("expected an object") == std::string::npos &&
                      want.error().find("unknown field") == std::string::npos;
  ++(syntax ? tally.syntax_errors : tally.schema_errors);
  tally.shifted += expected != want.error();
  if (got.error() != expected) {
    return ::testing::AssertionFailure() << "DOM error '" << want.error()
                                         << "', streaming '" << got.error()
                                         << "'\ninput: " << text;
  }
  return ::testing::AssertionSuccess();
}

TEST(CalibrationTraceOracle, HandPickedInputsMatchTheDomPath) {
  std::vector<std::string> inputs = {
      "", "  ", "\n", "[]", "[] x", "5", "5 {}", "5 ", "\"x\" ]", "null", "{}", "{} x",
      "{\"a\": 1}", "{\"a\"}", "{\"a\" 1}", "{,}", "{\"a\": 1,}", "[1,]", "{\"vantage\": tru}",
      // A \u escape cut by the splitter's bracket balance reads as truncated.
      "{\"vantage\": \"\\u\"} {}", "{\"vantage\": \"\\u\"}", "[\"\\u\"]] x", "\"\\u\"{} x",
      "\"\\u\"{}", "{\"a\": [\"\\u\" ]} x", "{\"a\": [\"\\ux\"]]} x", "{\"a\": \"\\u00\"}",
      "{\"a\": \"\\u0\"}}", "{\"a\": \"\\u\\\"\"}",
      std::string(129, '[') + std::string(129, ']'),
      std::string(129, '[') + "1" + std::string(129, ']'),
      std::string(130, '[') + std::string(130, ']'),
      "{\"peers\": " + std::string(200, '[') + std::string(200, ']') + "}",
  };
  for (int layout = 0; layout < 3; ++layout) {
    for (const bool multiline : {false, true}) {
      const std::string text = oracle_trace(layout, multiline);
      inputs.push_back(text);
      for (const std::size_t cut : {text.size() / 3, text.size() / 2, text.size() - 1}) {
        inputs.push_back(text.substr(0, cut));
      }
      inputs.push_back("\n\n  " + text + "\n{\"population_samples\": []}\n");
    }
  }
  DifferentialTally tally;
  for (const std::string& text : inputs) {
    EXPECT_TRUE(same_trace_result(text, tally));
    const auto [dom, streaming] = both_json_parses(text);
    EXPECT_EQ(dom, streaming) << "input: " << text;
  }
  EXPECT_EQ(tally.parsed, 12u);  // six layouts, each also after leading blanks
}

TEST(CalibrationTraceOracle, SeededMutantsMatchTheDomPath) {
  constexpr std::size_t kMutants = 3000;
  std::mt19937_64 rng(20211203);
  DifferentialTally tally;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kMutants && mismatches < 10; ++i) {
    const std::string text =
        mutate(oracle_trace(static_cast<int>(rng() % 3), rng() % 2 == 0), rng);
    const auto result = same_trace_result(text, tally);
    EXPECT_TRUE(result) << "mutant " << i;
    mismatches += !result;
    const auto [dom, streaming] = both_json_parses(text);
    EXPECT_EQ(dom, streaming) << "mutant " << i << ": " << text;
  }
  // Every class of outcome is exercised, the position change included.
  EXPECT_GT(tally.parsed, kMutants / 20);
  EXPECT_GT(tally.schema_errors, kMutants / 10);
  EXPECT_GT(tally.syntax_errors, kMutants / 10);
  EXPECT_GT(tally.shifted, 0u);
}

// ---- the pipeline on a synthetic trace -------------------------------------

TEST(CalibrationRun, EmitsAValidatingRoundTrippingScenario) {
  // 40 peers x 3 sessions each, exponential-ish spacing, explicit
  // connections.  Small but enough for the fitters.
  std::string peers;
  std::string connections;
  for (int p = 0; p < 40; ++p) {
    if (p > 0) {
      peers += ", ";
      connections += ", ";
    }
    const long base = 1000L * 60 * 60 * p / 4;
    peers += "{\"pid\": \"Qm" + std::to_string(p) +
             "\", \"first_seen_ms\": " + std::to_string(base) +
             ", \"last_seen_ms\": " + std::to_string(base + 20'000'000) + "}";
    for (int s = 0; s < 3; ++s) {
      if (s > 0) connections += ", ";
      const long open = base + s * 8'000'000L;
      const long close = open + 1'000'000L + 700'000L * ((p + s) % 5);
      connections += "{\"peer\": " + std::to_string(p) +
                     ", \"opened_ms\": " + std::to_string(open) +
                     ", \"closed_ms\": " + std::to_string(close) + "}";
    }
  }
  const std::string trace =
      "{\"vantage\": \"synthetic\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 120000000, \"peers\": [" + peers +
      "], \"connections\": [" + connections + "]}";

  Options options;
  options.verify = false;  // unit scope: scenario assembly only
  const auto result = run(trace, options);
  ASSERT_TRUE(result.has_value()) << result.error();
  EXPECT_TRUE(result->groups.contains("all"));
  ASSERT_TRUE(result->scenario.churn.has_value());
  EXPECT_EQ(scenario::ScenarioSpec::validate(result->scenario), std::nullopt);

  // Byte-exact round trip through the scenario layer.
  const std::string emitted = result->scenario.to_json_string();
  const auto reparsed = scenario::ScenarioSpec::from_json(emitted);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.error();
  EXPECT_EQ(*reparsed, result->scenario);
  EXPECT_EQ(reparsed->to_json_string(), emitted);

  // The report is well-formed JSON with the documented top-level keys.
  const std::string report = result->report_json();
  const auto parsed_report = common::JsonValue::parse(report);
  ASSERT_TRUE(parsed_report.has_value()) << parsed_report.error();
  for (const std::string_view key :
       {"trace", "fits", "scenario", "closed_loop"}) {
    EXPECT_NE(parsed_report->find(key), nullptr) << key;
  }
}

TEST(CalibrationRun, FailsWhenEverySessionIsCensored) {
  // One connection running to trace end: censored, nothing to fit.
  const std::string trace =
      "{\"vantage\": \"v\", \"measurement_start_ms\": 0, "
      "\"measurement_end_ms\": 10000000, \"peers\": ["
      "{\"pid\": \"Qm0\", \"first_seen_ms\": 0, \"last_seen_ms\": 10000000}"
      "], \"connections\": [{\"peer\": 0, \"opened_ms\": 0, "
      "\"closed_ms\": 10000000}]}";
  const auto result = run(trace, {});
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("no completed sessions"), std::string::npos);
}

}  // namespace
}  // namespace ipfs::analysis::calibrate
