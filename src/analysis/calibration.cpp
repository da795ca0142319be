#include "analysis/calibration.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "scenario/campaign.hpp"

namespace ipfs::analysis::calibrate {

using common::JsonWriter;
using common::SimDuration;
using common::SimTime;
using scenario::SessionDistribution;

namespace {

// ---- small math helpers ----------------------------------------------------

/// Standard-normal CDF via erfc (stable in both tails).
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_pdf(double x) {
  static const double kInvSqrt2Pi = 1.0 / std::sqrt(2.0 * std::acos(-1.0));
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

/// Inverse Mills ratio phi(a) / (1 - Phi(a)), with the asymptotic
/// expansion in the far right tail where both terms underflow.
double inverse_mills(double a) {
  if (a > 6.0) return a + 1.0 / a;
  const double tail = 0.5 * std::erfc(a / std::sqrt(2.0));
  if (tail <= 0.0) return a + 1.0 / std::max(a, 1.0);
  return normal_pdf(a) / tail;
}

/// Uncensored values, clamped to the 1 ms trace resolution and sorted.
std::vector<double> sorted_uncensored(const std::vector<Observation>& sample) {
  std::vector<double> values;
  values.reserve(sample.size());
  for (const Observation& obs : sample) {
    if (!obs.censored) values.push_back(std::max(obs.value_ms, 1.0));
  }
  std::sort(values.begin(), values.end());
  return values;
}

/// A sample with its uncensored values sorted once: the KS and AD
/// statistics of all three fits read the same vector.
struct SortedSample {
  const std::vector<Observation>& observations;
  std::vector<double> uncensored;  ///< sorted_uncensored(observations)
};

/// The distinct entries of `values`, sorted, and the position of each
/// input value among them (in input order).  Traces have a coarse time
/// grid, so a function of one value is evaluated once per distinct value
/// and looked up per observation; sums still run over the observations in
/// their original order, so every result keeps its bits.
struct DistinctValues {
  std::vector<double> values;
  std::vector<std::uint32_t> index;
};

DistinctValues distinct_values(const std::vector<double>& values) {
  DistinctValues distinct;
  distinct.values = values;
  std::sort(distinct.values.begin(), distinct.values.end());
  distinct.values.erase(
      std::unique(distinct.values.begin(), distinct.values.end()),
      distinct.values.end());
  distinct.index.reserve(values.size());
  for (const double v : values) {
    distinct.index.push_back(static_cast<std::uint32_t>(
        std::lower_bound(distinct.values.begin(), distinct.values.end(), v) -
        distinct.values.begin()));
  }
  return distinct;
}

/// `dist`'s CDF at each of the `sorted` values, evaluated once per run of
/// equal values.
std::vector<double> cdf_at(const SessionDistribution& dist,
                           const std::vector<double>& sorted) {
  std::vector<double> cdf;
  cdf.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back(i > 0 && sorted[i] == sorted[i - 1]
                      ? cdf.back()
                      : distribution_cdf(dist, sorted[i]));
  }
  return cdf;
}

/// KS distance from the fitted CDF at the sorted uncensored values.
double ks_from_cdf(const std::vector<double>& cdf) {
  if (cdf.empty()) return 1.0;
  const double n = static_cast<double>(cdf.size());
  double d = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    const double f = cdf[i];
    d = std::max(d, std::abs(static_cast<double>(i + 1) / n - f));
    d = std::max(d, std::abs(f - static_cast<double>(i) / n));
  }
  return d;
}

/// Anderson–Darling A² from the fitted CDF at the sorted uncensored
/// values.  Both logarithms of each clamped CDF value are taken once per
/// distinct value; index i pairs ln F(x_i) with ln(1 - F(x_{n-1-i})).
double ad_from_cdf(const std::vector<double>& cdf) {
  if (cdf.empty()) return std::numeric_limits<double>::infinity();
  const std::size_t n = cdf.size();
  std::vector<double> log_lower(n);
  std::vector<double> log_upper(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && cdf[i] == cdf[i - 1]) {
      log_lower[i] = log_lower[i - 1];
      log_upper[i] = log_upper[i - 1];
      continue;
    }
    const double f = std::clamp(cdf[i], 1e-12, 1.0 - 1e-12);
    log_lower[i] = std::log(f);
    log_upper[i] = std::log(1.0 - f);
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<double>(2 * i + 1) * (log_lower[i] + log_upper[n - 1 - i]);
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

FitResult too_few_uncensored(SessionDistribution::Kind kind,
                             std::size_t uncensored) {
  return failed_fit(kind, "needs >= " + std::to_string(kMinUncensored) +
                              " uncensored observations, got " +
                              std::to_string(uncensored));
}

/// Shared tail of every fitter: attach goodness-of-fit statistics and
/// sanity-check the parameters against the analytic oracles.
FitResult finish_fit(SessionDistribution dist, const SortedSample& sample) {
  const double mean = dist.analytic_mean();
  const double median = dist.analytic_median();
  if (!std::isfinite(mean) || mean <= 0.0 || !std::isfinite(median) ||
      median <= 0.0) {
    return failed_fit(dist.kind, "degenerate parameters (analytic oracle)");
  }
  const std::vector<double> cdf = cdf_at(dist, sample.uncensored);
  FitResult fit;
  fit.dist = dist;
  fit.ks = ks_from_cdf(cdf);
  fit.ad = ad_from_cdf(cdf);
  fit.ok = true;
  return fit;
}

// ---- censored MLE per family ------------------------------------------------

FitResult exponential_mle(const SortedSample& sample) {
  double total = 0.0;
  std::size_t uncensored = 0;
  for (const Observation& obs : sample.observations) {
    total += std::max(obs.value_ms, 1.0);
    uncensored += obs.censored ? 0 : 1;
  }
  if (uncensored < kMinUncensored) {
    return too_few_uncensored(SessionDistribution::Kind::kExponential,
                              uncensored);
  }
  // Censored MLE: every observation contributes its exposure time, only
  // completed ones count as events — mean = total exposure / events.
  const double mean = total / static_cast<double>(uncensored);
  return finish_fit(SessionDistribution::exponential(mean), sample);
}

FitResult weibull_mle(const SortedSample& sample) {
  const std::vector<Observation>& observations = sample.observations;
  double max_value = 0.0;
  for (const Observation& obs : observations) {
    max_value = std::max(max_value, std::max(obs.value_ms, 1.0));
  }
  std::vector<double> values;  // all, normalized by the max for stability
  values.reserve(observations.size());
  std::size_t uncensored = 0;
  for (const Observation& obs : observations) {
    values.push_back(std::max(obs.value_ms, 1.0) / max_value);
    uncensored += obs.censored ? 0 : 1;
  }
  if (uncensored < kMinUncensored) {
    return too_few_uncensored(SessionDistribution::Kind::kWeibull, uncensored);
  }
  const DistinctValues distinct = distinct_values(values);
  std::vector<double> log_of(distinct.values.size());
  for (std::size_t j = 0; j < log_of.size(); ++j) {
    log_of[j] = std::log(distinct.values[j]);
  }
  const double m = static_cast<double>(uncensored);
  double mean_log_completed = 0.0;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    if (!observations[i].censored) {
      mean_log_completed += log_of[distinct.index[i]];
    }
  }
  mean_log_completed /= m;
  // Profile likelihood in the shape k (right-censoring drops the
  // censored terms from the log mean but keeps them in the power sums):
  //   f(k) = sum(t^k ln t)/sum(t^k) - 1/k - mean(ln t | uncensored) = 0.
  // f is increasing: f(0+) = -inf and f(inf) -> -mean_log_completed >= 0,
  // so bisection is safe whenever a sign change exists.
  std::vector<double> power_of(distinct.values.size());
  auto power_sum_at = [&](double k) {
    for (std::size_t j = 0; j < power_of.size(); ++j) {
      power_of[j] = std::pow(distinct.values[j], k);
    }
    double power_sum = 0.0;
    for (const std::uint32_t j : distinct.index) power_sum += power_of[j];
    return power_sum;
  };
  auto profile = [&](double k) {
    const double power_sum = power_sum_at(k);
    double weighted_log = 0.0;
    for (const std::uint32_t j : distinct.index) {
      weighted_log += power_of[j] * log_of[j];
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
    // lo only ever holds a k with profile(k) < 0 and hi one without, so a
    // midpoint equal to either end re-assigns that end to itself: the
    // state is a fixed point and stopping gives the 200-iteration bits.
    if (mid == lo || mid == hi) break;
    (profile(mid) < 0.0 ? lo : hi) = mid;
  }
  const double shape = 0.5 * (lo + hi);
  const double scale =
      max_value * std::pow(power_sum_at(shape) / m, 1.0 / shape);
  return finish_fit(SessionDistribution::weibull(shape, scale), sample);
}

FitResult lognormal_mle(const SortedSample& sample) {
  std::vector<double> completed_log;
  std::vector<double> censored_log;
  for (const Observation& obs : sample.observations) {
    const double x = std::log(std::max(obs.value_ms, 1.0));
    (obs.censored ? censored_log : completed_log).push_back(x);
  }
  if (completed_log.size() < kMinUncensored) {
    return too_few_uncensored(SessionDistribution::Kind::kLognormal,
                              completed_log.size());
  }
  const double n =
      static_cast<double>(completed_log.size() + censored_log.size());
  // The completed terms of the EM sums never change: add them once.
  double completed_s1 = 0.0;
  double completed_s2 = 0.0;
  for (const double x : completed_log) {
    completed_s1 += x;
    completed_s2 += x * x;
  }
  double mu = completed_s1 / static_cast<double>(completed_log.size());
  double var = 0.0;
  for (const double x : completed_log) var += (x - mu) * (x - mu);
  var /= static_cast<double>(completed_log.size());
  double sigma = std::max(std::sqrt(var), 1e-3);
  // EM for the right-censored normal on ln t: each censored observation
  // contributes the conditional moments of X | X > c through the inverse
  // Mills ratio h = phi(a)/(1 - Phi(a)), a = (c - mu)/sigma:
  //   E[X | X > c]  = mu + sigma h,
  //   E[X^2 | X > c] = mu^2 + sigma^2 + sigma (c + mu) h.
  const DistinctValues censored = distinct_values(censored_log);
  std::vector<double> mills(censored.values.size());
  for (int iter = 0; iter < 500 && !censored_log.empty(); ++iter) {
    for (std::size_t j = 0; j < mills.size(); ++j) {
      mills[j] = inverse_mills((censored.values[j] - mu) / sigma);
    }
    double s1 = completed_s1;
    double s2 = completed_s2;
    for (std::size_t i = 0; i < censored_log.size(); ++i) {
      const double c = censored_log[i];
      const double h = mills[censored.index[i]];
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

std::string_view family_name(SessionDistribution::Kind kind) {
  return scenario::to_string(kind);
}

// ---- trace parsing helpers (streaming, field-path errors) ------------------

using ParseError = std::optional<std::string>;
using Token = common::JsonReader::Token;

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

std::string_view type_name(Token token) {
  switch (token) {
    case Token::kBeginObject: return "object";
    case Token::kBeginArray: return "array";
    case Token::kString: return "string";
    case Token::kNumber: return "number";
    case Token::kTrue:
    case Token::kFalse: return "bool";
    default: return "null";
  }
}

ParseError expect_object(Token token, const FieldPath& path) {
  if (token == Token::kBeginObject) return std::nullopt;
  return path.str() + ": expected an object, got " + std::string(type_name(token));
}

/// The first occurrence of one member: its first token (`kEnd` while
/// absent), its integer value when it is one in range and, for an array,
/// the first schema error among its elements.
struct Member {
  Token token = Token::kEnd;
  std::optional<SimTime> integer;
  ParseError error;

  [[nodiscard]] bool present() const noexcept { return token != Token::kEnd; }
};

bool read_member(common::JsonReader& reader, Token token, Member& out) {
  out.token = token;
  if (token == Token::kNumber) out.integer = reader.int64();
  return reader.skip(token);
}

/// Read the members of an object whose '{' was just read.  The value of
/// the first occurrence of `keys[slot]` goes to `on_value(slot, token)`,
/// which consumes it; repeated keys (first wins) and unknown keys are
/// skipped, and the first unknown key lands in `unknown`.  False on a
/// syntax error.
template <std::size_t N, typename OnValue>
bool read_object(common::JsonReader& reader,
                 const std::array<std::string_view, N>& keys,
                 std::optional<std::string>& unknown, OnValue&& on_value) {
  std::array<bool, N> seen{};
  for (Token token = reader.next(); token != Token::kEndObject;
       token = reader.next()) {
    if (token == Token::kError) return false;
    const std::size_t slot = static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), reader.string()) - keys.begin());
    if (slot == N && !unknown) unknown.emplace(reader.string());
    const Token value = reader.next();
    if (slot == N || seen[slot]) {
      if (!reader.skip(value)) return false;
      continue;
    }
    seen[slot] = true;
    if (!on_value(slot, value)) return false;
  }
  return true;
}

ParseError unknown_field(const FieldPath& path,
                         const std::optional<std::string>& unknown) {
  if (!unknown) return std::nullopt;
  return path.str() + ": unknown field '" + *unknown + "'";
}

ParseError require_string(const Member& value, std::string_view key,
                          const FieldPath& path) {
  if (!value.present()) return join(path.str(), key) + ": missing required field";
  if (value.token != Token::kString) return join(path.str(), key) + ": expected a string";
  return std::nullopt;
}

ParseError require_time(const Member& value, std::string_view key,
                        const FieldPath& path, SimTime& out) {
  if (!value.present()) return join(path.str(), key) + ": missing required field";
  if (!value.integer) return join(path.str(), key) + ": expected an integer";
  out = *value.integer;
  return std::nullopt;
}

ParseError optional_string(const Member& value, std::string_view key,
                           const FieldPath& path) {
  if (!value.present()) return std::nullopt;
  return require_string(value, key, path);
}

ParseError optional_array(const Member& value, std::string_view key,
                          const FieldPath& path) {
  if (value.present() && value.token != Token::kBeginArray) {
    return join(path.str(), key) + ": expected an array";
  }
  return value.error;
}

/// Read the elements of an array whose '[' was just read, passing each
/// element's first token and index to `on_element`, which consumes it.
template <typename OnElement>
bool read_array(common::JsonReader& reader, OnElement&& on_element) {
  std::size_t index = 0;
  for (Token token = reader.next(); token != Token::kEndArray;
       token = reader.next()) {
    if (token == Token::kError || !on_element(token, index++)) return false;
  }
  return true;
}

/// Read a `protocols_ever` / `connected_ips` list: only its elements'
/// types matter.
bool read_strings(common::JsonReader& reader, const FieldPath& path,
                  std::string_view key, ParseError& error) {
  return read_array(reader, [&](Token token, std::size_t i) {
    if (token != Token::kString && !error) {
      error = FieldPath{key, i, &path}.str() + ": expected a string";
    }
    return reader.skip(token);
  });
}

bool read_agents(common::JsonReader& reader, const FieldPath& path,
                 std::vector<measure::AgentEvent>& agents, ParseError& error) {
  static constexpr std::array<std::string_view, 2> kKeys = {"at_ms", "agent"};
  return read_array(reader, [&](Token token, std::size_t i) {
    const FieldPath entry_path{"agents", i, &path};
    if (error) return reader.skip(token);
    if ((error = expect_object(token, entry_path))) return reader.skip(token);
    std::optional<std::string> unknown;
    Member at;
    Member agent;
    measure::AgentEvent event;
    const auto on_value = [&](std::size_t slot, Token value) {
      if (slot == 0) return read_member(reader, value, at);
      if (value == Token::kString) event.agent = common::Symbol(reader.string());
      return read_member(reader, value, agent);
    };
    if (!read_object(reader, kKeys, unknown, on_value)) return false;
    error = unknown_field(entry_path, unknown);
    if (!error) error = require_time(at, "at_ms", entry_path, event.at);
    if (!error) error = require_string(agent, "agent", entry_path);
    if (!error) agents.push_back(event);
    return true;
  });
}

/// Read `peers[index]`, whose first token is `token`, into `record`.  Its
/// schema error, if any, goes to `error`, checked in the order the fields
/// are listed in the trace schema.  False on a syntax error.
bool read_peer(common::JsonReader& reader, Token token, const FieldPath& path,
               measure::PeerRecord& record, ParseError& error) {
  static constexpr std::array<std::string_view, 7> kKeys = {
      "pid",    "first_seen_ms",  "last_seen_ms", "ever_dht_server",
      "agents", "protocols_ever", "connected_ips"};
  if ((error = expect_object(token, path))) return reader.skip(token);
  std::optional<std::string> unknown;
  std::array<Member, kKeys.size()> members;
  const auto on_value = [&](std::size_t slot, Token value) {
    Member& member = members[slot];
    if (slot < 4 || value != Token::kBeginArray) {
      return read_member(reader, value, member);
    }
    member.token = value;
    if (slot == 4) return read_agents(reader, path, record.agent_history, member.error);
    return read_strings(reader, path, kKeys[slot], member.error);
  };
  if (!read_object(reader, kKeys, unknown, on_value)) return false;
  error = [&]() -> ParseError {
    if (auto e = unknown_field(path, unknown)) return e;
    if (auto e = require_string(members[0], kKeys[0], path)) return e;
    if (auto e = require_time(members[1], kKeys[1], path, record.first_seen)) return e;
    if (auto e = require_time(members[2], kKeys[2], path, record.last_seen)) return e;
    if (record.last_seen < record.first_seen) {
      return join(path.str(), kKeys[2]) + ": must be >= first_seen_ms";
    }
    const Token dht = members[3].token;
    if (dht != Token::kEnd && dht != Token::kTrue && dht != Token::kFalse) {
      return join(path.str(), kKeys[3]) + ": expected true or false";
    }
    record.ever_dht_server = dht == Token::kTrue;
    for (std::size_t slot = 4; slot < kKeys.size(); ++slot) {
      if (auto e = optional_array(members[slot], kKeys[slot], path)) return e;
    }
    return std::nullopt;
  }();
  return true;
}

constexpr measure::PeerIndex kOutOfRange =
    std::numeric_limits<measure::PeerIndex>::max();

/// The first schema error among the connections, and whether it precedes
/// the peer-index range check (which waits for the peer count).
struct ConnectionError {
  std::string message;
  bool before_range_check = false;
};

/// Read `connections[index]`, whose first token is `token`, into
/// `record`; an error goes to `error`.  `record.peer` is left at
/// `kOutOfRange` for an index outside 0..2^32-2.
bool read_connection(common::JsonReader& reader, Token token, std::size_t index,
                     measure::ConnRecord& record,
                     std::optional<ConnectionError>& error) {
  static constexpr std::array<std::string_view, 5> kKeys = {
      "peer", "opened_ms", "closed_ms", "direction", "reason"};
  const FieldPath path{"connections", index};
  if (auto e = expect_object(token, path)) {
    error = ConnectionError{std::move(*e), true};
    return reader.skip(token);
  }
  std::optional<std::string> unknown;
  std::array<Member, kKeys.size()> members;
  const auto on_value = [&](std::size_t slot, Token value) {
    return read_member(reader, value, members[slot]);
  };
  if (!read_object(reader, kKeys, unknown, on_value)) return false;
  bool before_range_check = true;
  ParseError message = [&]() -> ParseError {
    if (auto e = unknown_field(path, unknown)) return e;
    SimTime peer = 0;
    if (auto e = require_time(members[0], kKeys[0], path, peer)) return e;
    record.peer = peer < 0 || peer >= kOutOfRange ? kOutOfRange
                                                  : static_cast<measure::PeerIndex>(peer);
    before_range_check = false;
    if (auto e = require_time(members[1], kKeys[1], path, record.opened)) return e;
    if (auto e = require_time(members[2], kKeys[2], path, record.closed)) return e;
    if (record.closed < record.opened) {
      return join(path.str(), kKeys[2]) + ": must be >= opened_ms";
    }
    if (auto e = optional_string(members[3], kKeys[3], path)) return e;
    return optional_string(members[4], kKeys[4], path);
  }();
  if (message) error = ConnectionError{std::move(*message), before_range_check};
  return true;
}

// ---- observation extraction ------------------------------------------------

struct GroupObservations {
  std::vector<Observation> sessions;
  std::vector<Observation> gaps;
};

/// Split the reconstructed sessions into the report groups and derive the
/// per-peer intersession gaps.  The final silence after a peer's last
/// *completed* session is a right-censored gap observation (the peer had
/// not returned by trace end); gaps are left-truncated at `max_gap` by
/// construction, which DESIGN.md §15 documents as a known limitation.
std::map<std::string, GroupObservations> extract_observations(
    const measure::Dataset& dataset, const std::vector<SessionTrace>& sessions) {
  std::map<std::string, GroupObservations> groups;
  const bool has_window = dataset.measurement_end > dataset.measurement_start;
  auto add = [&groups](const std::string& name, const Observation& obs,
                       bool is_gap) {
    auto& group = groups[name];
    (is_gap ? group.gaps : group.sessions).push_back(obs);
  };
  auto add_both = [&](bool dht_server, const Observation& obs, bool is_gap) {
    add("all", obs, is_gap);
    add(dht_server ? "dht_servers" : "clients", obs, is_gap);
  };
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionTrace& session = sessions[i];
    const bool dht = dataset.record(session.peer).ever_dht_server;
    add_both(dht,
             {std::max(static_cast<double>(session.length()), 1.0),
              session.censored},
             /*is_gap=*/false);
    const bool last_of_peer =
        i + 1 == sessions.size() || sessions[i + 1].peer != session.peer;
    if (!last_of_peer) {
      const double gap_ms =
          static_cast<double>(sessions[i + 1].begin - session.end);
      add_both(dht, {std::max(gap_ms, 1.0), false}, /*is_gap=*/true);
    } else if (has_window && !session.censored) {
      const double silence_ms =
          static_cast<double>(dataset.measurement_end - session.end);
      add_both(dht, {std::max(silence_ms, 1.0), true}, /*is_gap=*/true);
    }
  }
  return groups;
}

std::size_t censored_count(const std::vector<Observation>& sample) {
  std::size_t count = 0;
  for (const Observation& obs : sample) count += obs.censored ? 1 : 0;
  return count;
}

// ---- report rendering ------------------------------------------------------

void write_distribution(JsonWriter& json, const SessionDistribution& dist) {
  json.begin_object();
  json.field("kind", family_name(dist.kind));
  switch (dist.kind) {
    case SessionDistribution::Kind::kExponential:
      json.field("mean_ms", dist.mean_ms);
      break;
    case SessionDistribution::Kind::kWeibull:
      json.field("shape", dist.shape);
      json.field("scale_ms", dist.scale_ms);
      break;
    case SessionDistribution::Kind::kLognormal:
      json.field("median_ms", dist.median_ms);
      json.field("sigma", dist.sigma);
      break;
  }
  json.end_object();
}

void write_fit(JsonWriter& json, const FitResult& fit) {
  json.begin_object();
  json.field("ok", fit.ok);
  if (fit.ok) {
    json.key("params");
    write_distribution(json, fit.dist);
    json.field("ks", fit.ks);
    json.field("ad", fit.ad);
    json.field("analytic_mean_ms", fit.dist.analytic_mean());
    json.field("analytic_median_ms", fit.dist.analytic_median());
  } else {
    json.field("note", fit.note);
  }
  json.end_object();
}

void write_selection(JsonWriter& json, const FamilySelection& selection,
                     std::size_t observations, std::size_t censored) {
  json.begin_object();
  json.field("observations", static_cast<std::uint64_t>(observations));
  json.field("censored", static_cast<std::uint64_t>(censored));
  if (selection.any_ok()) {
    json.field("selected", selection.selected);
  } else {
    json.key("selected");
    json.null();
  }
  json.key("candidates");
  json.begin_object();
  json.key("exponential");
  write_fit(json, selection.exponential);
  json.key("weibull");
  write_fit(json, selection.weibull);
  json.key("lognormal");
  write_fit(json, selection.lognormal);
  json.end_object();
  json.end_object();
}

}  // namespace

// ---- family selection ------------------------------------------------------

const FitResult& FamilySelection::best() const {
  if (selected == "weibull") return weibull;
  if (selected == "lognormal") return lognormal;
  return exponential;
}

FitResult fit_exponential(const std::vector<Observation>& sample) {
  return exponential_mle({sample, sorted_uncensored(sample)});
}

FitResult fit_weibull(const std::vector<Observation>& sample) {
  return weibull_mle({sample, sorted_uncensored(sample)});
}

FitResult fit_lognormal(const std::vector<Observation>& sample) {
  return lognormal_mle({sample, sorted_uncensored(sample)});
}

double distribution_cdf(const SessionDistribution& dist, double t_ms) {
  if (t_ms <= 0.0) return 0.0;
  switch (dist.kind) {
    case SessionDistribution::Kind::kExponential:
      return 1.0 - std::exp(-t_ms / dist.mean_ms);
    case SessionDistribution::Kind::kWeibull:
      return 1.0 - std::exp(-std::pow(t_ms / dist.scale_ms, dist.shape));
    case SessionDistribution::Kind::kLognormal: {
      if (dist.sigma <= 0.0) return t_ms >= dist.median_ms ? 1.0 : 0.0;
      return normal_cdf((std::log(t_ms) - std::log(dist.median_ms)) /
                        dist.sigma);
    }
  }
  return 0.0;
}

double ks_statistic(const std::vector<Observation>& sample,
                    const SessionDistribution& dist) {
  return ks_from_cdf(cdf_at(dist, sorted_uncensored(sample)));
}

double ad_statistic(const std::vector<Observation>& sample,
                    const SessionDistribution& dist) {
  return ad_from_cdf(cdf_at(dist, sorted_uncensored(sample)));
}

double two_sample_ks(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double d = 0.0;
  while (ia < a.size() && ib < b.size()) {
    const double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) ++ia;
    while (ib < b.size() && b[ib] <= x) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  return d;
}

FamilySelection select_family(const std::vector<Observation>& sample) {
  const SortedSample sorted{sample, sorted_uncensored(sample)};
  FamilySelection selection;
  selection.exponential = exponential_mle(sorted);
  selection.weibull = weibull_mle(sorted);
  selection.lognormal = lognormal_mle(sorted);

  struct Candidate {
    const FitResult* fit;
    std::string_view name;
    int parameters;
  };
  const Candidate candidates[] = {
      {&selection.exponential, "exponential", 1},
      {&selection.weibull, "weibull", 2},
      {&selection.lognormal, "lognormal", 2},
  };
  double best_ks = std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (c.fit->ok) best_ks = std::min(best_ks, c.fit->ks);
  }
  const Candidate* chosen = nullptr;
  for (const Candidate& c : candidates) {
    if (!c.fit->ok || c.fit->ks > best_ks + kKsTieTolerance) continue;
    // Within the KS tie band: fewer parameters beat more (parsimony, so
    // truly-exponential data is not claimed by Weibull's extra degree of
    // freedom), then the lower AD, then declaration order.
    if (chosen == nullptr || c.parameters < chosen->parameters ||
        (c.parameters == chosen->parameters && c.fit->ad < chosen->fit->ad)) {
      chosen = &c;
    }
  }
  if (chosen != nullptr) selection.selected = std::string(chosen->name);
  return selection;
}

// ---- trace ingestion -------------------------------------------------------

std::expected<measure::Dataset, std::string> parse_trace(std::string_view text) {
  static constexpr std::array<std::string_view, 5> kKeys = {
      "vantage", "measurement_start_ms", "measurement_end_ms", "peers",
      "connections"};
  common::JsonReader reader(text, common::JsonReader::Extent::kFirst);
  const auto syntax_error = [&] { return std::unexpected("trace: " + reader.error()); };
  const Token root = reader.next();
  if (root != Token::kBeginObject) {
    if (!reader.skip(root) || reader.next() != Token::kEnd) return syntax_error();
    return std::unexpected("trace: expected an object, got " +
                           std::string(type_name(root)));
  }
  // One pass: every member is read (and syntax-checked) before any schema
  // error is reported, and the errors then rank in the order of checks
  // below, whatever the member order (DESIGN.md §15).
  measure::Dataset dataset;
  std::optional<std::string> unknown;
  std::array<Member, kKeys.size()> members;
  std::size_t peer_count = 0;
  ParseError peer_error;
  std::optional<ConnectionError> connection_error;
  const auto on_value = [&](std::size_t slot, Token value) {
    if (slot == 0 && value == Token::kString) dataset.vantage = reader.string();
    if (slot < 3 || value != Token::kBeginArray) {
      return read_member(reader, value, members[slot]);
    }
    members[slot].token = value;
    if (slot == 3) {
      return read_array(reader, [&](Token token, std::size_t i) {
        ++peer_count;
        if (peer_error) return reader.skip(token);
        measure::PeerRecord record;
        if (!read_peer(reader, token, FieldPath{"peers", i}, record, peer_error)) {
          return false;
        }
        if (peer_error) return true;
        // The PID string is identity only here; re-intern a synthetic PeerId
        // per index (PeerIds are opaque hashes, not parseable strings).
        record.pid = p2p::PeerId::from_seed(i);
        dataset.record(dataset.intern(record.pid, record.first_seen)) = std::move(record);
        return true;
      });
    }
    return read_array(reader, [&](Token token, std::size_t i) {
      if (connection_error) return reader.skip(token);
      measure::ConnRecord record;
      if (!read_connection(reader, token, i, record, connection_error)) return false;
      if (!connection_error || !connection_error->before_range_check) {
        dataset.add_connection(record);
      }
      return true;
    });
  };
  if (!read_object(reader, kKeys, unknown, on_value)) return syntax_error();

  const FieldPath root_path;
  if (auto error = unknown_field(FieldPath{"trace"}, unknown)) {
    return std::unexpected(*error);
  }
  if (auto error = require_string(members[0], kKeys[0], root_path)) {
    return std::unexpected(*error);
  }
  if (auto error = require_time(members[1], kKeys[1], root_path,
                                dataset.measurement_start)) {
    return std::unexpected(*error);
  }
  if (auto error = require_time(members[2], kKeys[2], root_path,
                                dataset.measurement_end)) {
    return std::unexpected(*error);
  }
  if (dataset.measurement_end < dataset.measurement_start) {
    return std::unexpected(
        "measurement_end_ms: must be >= measurement_start_ms");
  }
  if (!members[3].present()) return std::unexpected("peers: missing required field");
  if (members[3].token != Token::kBeginArray) {
    return std::unexpected("peers: expected an array");
  }
  if (peer_count == 0) {
    return std::unexpected("peers: dataset is empty — nothing to calibrate");
  }
  if (peer_error) return std::unexpected(*peer_error);
  if (!members[4].present()) {
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
    return dataset;
  }
  if (auto error = optional_array(members[4], kKeys[4], root_path)) {
    return std::unexpected(*error);
  }
  // The range check waits for the peer count: "connections" may come
  // before "peers".  It precedes a connection's later checks.
  for (std::size_t i = 0; i < dataset.connection_count(); ++i) {
    if (dataset.connections()[i].peer >= dataset.peer_count()) {
      return std::unexpected(FieldPath{"connections", i}.str() +
                             ".peer: index out of range");
    }
  }
  if (connection_error) return std::unexpected(connection_error->message);
  return dataset;
}

// ---- the pipeline ----------------------------------------------------------

std::expected<Result, std::string> run(std::string_view trace_text,
                                       const Options& options) {
  auto dataset = parse_trace(trace_text);
  if (!dataset) return std::unexpected(dataset.error());

  Result result;
  result.trace = std::move(*dataset);
  result.max_gap = options.max_gap;
  const std::vector<SessionTrace> sessions =
      reconstruct_sessions(result.trace, options.max_gap);
  result.measured = compute_churn_stats(sessions);
  if (result.measured.completed_sessions() == 0) {
    return std::unexpected(
        "trace: no completed sessions after censoring — cannot fit");
  }
  const auto observations = extract_observations(result.trace, sessions);
  for (const auto& [name, group] : observations) {
    GroupFit fit;
    fit.session_observations = group.sessions.size();
    fit.session_censored = censored_count(group.sessions);
    fit.gap_observations = group.gaps.size();
    fit.gap_censored = censored_count(group.gaps);
    fit.session = select_family(group.sessions);
    fit.gap = select_family(group.gaps);
    result.groups.emplace(name, std::move(fit));
  }
  const GroupFit& all = result.groups.at("all");
  if (!all.session.any_ok()) {
    return std::unexpected(
        "trace: too few completed sessions to fit any distribution family");
  }

  // ---- assemble the calibrated scenario ------------------------------------
  scenario::ScenarioSpec& spec = result.scenario;
  spec.name = options.name;
  spec.description =
      "Churn model calibrated from trace '" + result.trace.vantage + "'";
  spec.period.name = "calibrated";
  spec.period.dates = "calibration source window";
  spec.period.duration = result.trace.duration() > 0
                             ? result.trace.duration()
                             : common::kDay;

  scenario::ChurnSpec churn;
  churn.session = all.session.best().dist;
  if (all.gap.any_ok()) churn.gap = all.gap.best().dist;
  // Per-group overrides: DHT servers map onto the core-server category,
  // everything else onto normal users.  A group only overrides when its
  // own session fit converged; its gap falls back to the trace-wide one.
  const struct {
    const char* group;
    scenario::Category category;
  } group_categories[] = {
      {"dht_servers", scenario::Category::kCoreServer},
      {"clients", scenario::Category::kNormalUser},
  };
  for (const auto& mapping : group_categories) {
    const auto it = result.groups.find(mapping.group);
    if (it == result.groups.end() || !it->second.session.any_ok()) continue;
    scenario::ChurnCategorySpec category;
    category.category = mapping.category;
    category.session = it->second.session.best().dist;
    category.gap =
        it->second.gap.any_ok() ? it->second.gap.best().dist : churn.gap;
    churn.categories.push_back(category);
  }
  // Steady-state availability of the fitted alternating process: a peer
  // is online mean_session / (mean_session + mean_gap) of the time.
  const double mean_session = churn.session.analytic_mean();
  const double mean_gap = churn.gap.analytic_mean();
  churn.initial_online =
      std::clamp(mean_session / (mean_session + mean_gap), 0.05, 0.95);
  churn.sample_interval = std::min<SimDuration>(common::kHour,
                                                spec.period.duration);
  spec.churn = churn;

  spec.population = scenario::PopulationSpec::test_scale(options.verify_scale);
  spec.campaign.seed = options.seed;
  spec.campaign.trials = 1;
  spec.output.pretty = true;
  spec.output.include_connections = true;
  spec.output.role_filter = measure::DatasetRole::kVantage;

  if (auto error = scenario::ScenarioSpec::validate(spec)) {
    return std::unexpected("emitted scenario failed validation: " + *error);
  }

  // ---- closed loop: re-simulate and compare the session CDFs ---------------
  result.loop.threshold = options.ks_threshold;
  if (options.verify) {
    auto engine = scenario::CampaignEngine::create(spec.to_campaign_config());
    if (!engine) {
      return std::unexpected("closed-loop campaign rejected: " + engine.error());
    }
    scenario::CampaignResultSink sink;
    engine->run(sink);
    const scenario::CampaignResult campaign = sink.take_result();
    if (!campaign.go_ipfs) {
      return std::unexpected("closed-loop campaign produced no vantage dataset");
    }
    const std::vector<SessionTrace> simulated =
        reconstruct_sessions(*campaign.go_ipfs, options.max_gap);
    std::vector<double> simulated_ms;
    for (const SessionTrace& session : simulated) {
      if (!session.censored) {
        simulated_ms.push_back(
            std::max(static_cast<double>(session.length()), 1.0));
      }
    }
    std::vector<double> measured_ms;
    for (const SessionTrace& session : sessions) {
      if (!session.censored) {
        measured_ms.push_back(
            std::max(static_cast<double>(session.length()), 1.0));
      }
    }
    result.loop.ran = true;
    result.loop.scale = options.verify_scale;
    result.loop.seed = options.seed;
    result.loop.simulated_sessions = simulated_ms.size();
    result.loop.ks = two_sample_ks(std::move(measured_ms),
                                   std::move(simulated_ms));
    result.loop.pass = result.loop.ks <= options.ks_threshold;
  }
  return result;
}

std::string Result::report_json() const {
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/true);
  json.begin_object();
  json.key("trace");
  json.begin_object();
  json.field("vantage", trace.vantage);
  json.field("measurement_start_ms", trace.measurement_start);
  json.field("measurement_end_ms", trace.measurement_end);
  json.field("peers", static_cast<std::uint64_t>(trace.peer_count()));
  json.field("connections", static_cast<std::uint64_t>(trace.connection_count()));
  json.field("max_gap_ms", max_gap);
  json.field("sessions", static_cast<std::uint64_t>(measured.session_count));
  json.field("censored_sessions",
             static_cast<std::uint64_t>(measured.censored_sessions));
  json.field("completed_sessions",
             static_cast<std::uint64_t>(measured.completed_sessions()));
  json.field("mean_session_s", measured.mean_session_s);
  json.field("median_session_s", measured.median_session_s);
  json.end_object();

  json.key("fits");
  json.begin_object();
  for (const auto& [name, group] : groups) {
    json.key(name);
    json.begin_object();
    json.key("session");
    write_selection(json, group.session, group.session_observations,
                    group.session_censored);
    json.key("gap");
    write_selection(json, group.gap, group.gap_observations,
                    group.gap_censored);
    json.end_object();
  }
  json.end_object();

  json.key("scenario");
  json.begin_object();
  json.field("name", scenario.name);
  if (scenario.churn) {
    json.key("session");
    write_distribution(json, scenario.churn->session);
    json.key("gap");
    write_distribution(json, scenario.churn->gap);
    json.field("initial_online", scenario.churn->initial_online);
  }
  json.field("population_scale", scenario.population.scale);
  json.field("seed", scenario.campaign.seed);
  json.end_object();

  json.key("closed_loop");
  json.begin_object();
  json.field("ran", loop.ran);
  if (loop.ran) {
    json.field("scale", loop.scale);
    json.field("seed", loop.seed);
    json.field("simulated_sessions",
               static_cast<std::uint64_t>(loop.simulated_sessions));
    json.field("ks", loop.ks);
  }
  json.field("threshold", loop.threshold);
  json.field("pass", loop.pass);
  json.end_object();

  json.end_object();
  out << '\n';
  return out.str();
}

}  // namespace ipfs::analysis::calibrate
