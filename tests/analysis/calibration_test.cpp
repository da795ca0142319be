// Unit tests for the churn-calibration module (analysis/calibration.hpp):
// censored-MLE fitter recovery on synthetic draws from each distribution
// family, KS-based family selection with the parsimony tie-break, the
// goodness-of-fit statistics against analytic oracles, bit-exact agreement
// of the fitters with a straightforward reference implementation, the
// multi-document splitter, and the strict malformed-trace corpus.
#include "analysis/calibration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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

// ---- the document splitter -------------------------------------------------

TEST(CalibrationTrace, FirstDocumentStopsAtTheFirstBalancedClose) {
  const std::string text =
      "{\n  \"a\": \"}{ not a brace\",\n  \"b\": [1, 2]\n}\n{\n  \"second\": 1\n}\n";
  EXPECT_EQ(first_document(text),
            "{\n  \"a\": \"}{ not a brace\",\n  \"b\": [1, 2]\n}");
}

TEST(CalibrationTrace, FirstDocumentHandlesEscapedQuotes) {
  const std::string text = "{\"a\": \"\\\"}\"}{\"b\": 2}";
  EXPECT_EQ(first_document(text), "{\"a\": \"\\\"}\"}");
}

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
