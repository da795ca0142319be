#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

namespace ipfs::scenario {

using common::JsonValue;
using common::JsonWriter;
using common::SimDuration;

namespace {

/// Parse-stage error: nullopt means the extraction succeeded.
using ParseError = std::optional<std::string>;

std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

ParseError expect_object(const JsonValue& value, const std::string& path) {
  if (value.is_object()) return std::nullopt;
  return path + ": expected an object, got " + std::string(value.type_name());
}

/// One JSON value into a member of type `T` at `path`.  A SimDuration is
/// integer milliseconds (the library's SimTime unit), so specs round-trip
/// without floating-point drift.
template <typename T>
ParseError read_value(const JsonValue& value, const std::string& path, T& out) {
  std::optional<T> parsed;
  std::string_view expected;
  if constexpr (std::is_same_v<T, bool>) {
    expected = "true or false";
    if (value.is_bool()) parsed = value.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    expected = "a number";
    if (value.is_number()) parsed = value.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    expected = "a string";
    if (value.is_string()) parsed = value.as_string();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    expected = "a non-negative integer";
    parsed = value.as_uint64();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    expected = "an integer in [0, 2^32)";
    const auto wide = value.as_uint64();
    if (wide && std::in_range<T>(*wide)) parsed = static_cast<T>(*wide);
  } else if constexpr (std::is_same_v<T, int>) {
    expected = "an integer";
    const auto wide = value.as_int64();
    if (wide && std::in_range<T>(*wide)) parsed = static_cast<T>(*wide);
  } else {
    static_assert(std::is_same_v<T, SimDuration>);
    expected = "an integer number of milliseconds";
    parsed = value.as_int64();
  }
  if (!parsed) return path + ": expected " + std::string(expected);
  out = *std::move(parsed);
  return std::nullopt;
}

template <typename T>
using Reader = ParseError (*)(const JsonValue&, const std::string&, T&);

/// `read` over the member `object[key]`; an absent key leaves `out` as it
/// is.  Scalars use `read_value`.
template <typename T>
ParseError read_key(const JsonValue& object, std::string_view key,
                    const std::string& path, T& out, Reader<T> read = read_value<T>) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return std::nullopt;
  return read(*value, join(path, key), out);
}

/// An optional section is engaged only when its key is present.
template <typename T>
ParseError read_key(const JsonValue& object, std::string_view key,
                    const std::string& path, std::optional<T>& out, Reader<T> read) {
  if (object.find(key) == nullptr) return std::nullopt;
  return read_key(object, key, path, out.emplace(), read);
}

template <typename T>
using Writer = void (*)(JsonWriter&, const T&);

/// `write` under `key`; an optional section is written only when engaged,
/// so scenario files that predate it keep exporting byte-identically.
template <typename T>
void write_key(JsonWriter& writer, std::string_view key, const T& in, Writer<T> write) {
  writer.key(key);
  write(writer, in);
}

template <typename T>
void write_key(JsonWriter& writer, std::string_view key, const std::optional<T>& in,
               Writer<T> write) {
  if (in) write_key(writer, key, *in, write);
}

// ---- field tables -----------------------------------------------------------

/// One scalar field of spec struct `S`: its JSON key and its member.  The
/// member's type picks the reader and the writer.
template <typename S>
struct Field {
  std::string_view key;
  std::variant<bool S::*, double S::*, std::string S::*, std::uint32_t S::*,
               std::uint64_t S::*, int S::*, SimDuration S::*>
      member;
};

/// A section's fields in parse order, which is also the write order: the
/// table fixes both which error a bad document reports first and the bytes
/// `to_json` writes.
template <typename S>
using Fields = std::span<const Field<S>>;

/// `value` must be an object.  Strict schemas: a member that is neither one
/// of `keys` (nested sections, enums, arrays) nor a field of one of
/// `tables` is an error, so typos fail `ipfs_sim validate` instead of being
/// silently ignored.
template <typename... Tables>
ParseError check_keys(const JsonValue& value, const std::string& path,
                      std::initializer_list<std::string_view> keys,
                      const Tables&... tables) {
  if (auto e = expect_object(value, path)) return e;
  for (const JsonValue::Member& member : value.as_object()) {
    const auto named = [&](std::string_view key) { return key == member.first; };
    if (!std::ranges::any_of(keys, named) &&
        !(std::ranges::any_of(tables, [&](const auto& f) { return named(f.key); }) ||
          ...)) {
      return path + ": unknown field '" + member.first + "'";
    }
  }
  return std::nullopt;
}

template <typename S>
ParseError read_fields(const JsonValue& object, const std::string& path,
                       std::type_identity_t<Fields<S>> fields, S& out) {
  for (const Field<S>& field : fields) {
    ParseError e = std::visit(
        [&](auto member) { return read_key(object, field.key, path, out.*member); },
        field.member);
    if (e) return e;
  }
  return std::nullopt;
}

template <typename S>
void write_fields(JsonWriter& writer, std::type_identity_t<Fields<S>> fields,
                  const S& in) {
  for (const Field<S>& field : fields) {
    std::visit([&](auto member) { writer.field(field.key, in.*member); },
               field.member);
  }
}

/// An object holding `fields` and, unread here, the other `keys`.
template <typename S>
ParseError read_object(const JsonValue& value, const std::string& path,
                       std::type_identity_t<Fields<S>> fields, S& out,
                       std::initializer_list<std::string_view> keys = {}) {
  if (auto e = check_keys(value, path, keys, fields)) return e;
  return read_fields(value, path, fields, out);
}

template <typename S>
void write_object(JsonWriter& writer, std::type_identity_t<Fields<S>> fields,
                  const S& in) {
  writer.begin_object();
  write_fields(writer, fields, in);
  writer.end_object();
}

/// The optional sub-object `parent[key]`, holding exactly `fields`.
template <typename S>
ParseError read_section(const JsonValue& parent, std::string_view key,
                        const std::string& path,
                        std::type_identity_t<Fields<S>> fields, S& out) {
  const JsonValue* value = parent.find(key);
  if (value == nullptr) return std::nullopt;
  return read_object(*value, join(path, key), fields, out);
}

// ---- arrays and category-keyed maps -----------------------------------------

/// The optional array `parent[key]`, each item read by `read_item`.
template <typename T, typename ReadItem>
ParseError read_array(const JsonValue& parent, std::string_view key,
                      const std::string& path, std::vector<T>& out,
                      ReadItem read_item) {
  const JsonValue* array = parent.find(key);
  if (array == nullptr) return std::nullopt;
  const std::string array_path = join(path, key);
  if (!array->is_array()) return array_path + ": expected an array";
  for (std::size_t i = 0; i < array->as_array().size(); ++i) {
    const std::string item_path = array_path + "[" + std::to_string(i) + "]";
    T item;
    if (auto e = read_item(array->as_array()[i], item_path, item)) return e;
    out.push_back(std::move(item));
  }
  return std::nullopt;
}

template <typename T, typename WriteItem>
void write_array(JsonWriter& writer, std::string_view key,
                 const std::vector<T>& items, WriteItem write_item) {
  writer.key(key);
  writer.begin_array();
  for (const T& item : items) write_item(item);
  writer.end_array();
}

/// An array of objects each holding exactly `fields`.
template <typename S>
ParseError read_objects(const JsonValue& parent, std::string_view key,
                        const std::string& path,
                        std::type_identity_t<Fields<S>> fields, std::vector<S>& out) {
  const auto read_item = [fields](const JsonValue& value, const std::string& item_path,
                                  S& item) {
    return read_object(value, item_path, fields, item);
  };
  return read_array(parent, key, path, out, read_item);
}

template <typename S>
void write_objects(JsonWriter& writer, std::string_view key,
                   std::type_identity_t<Fields<S>> fields,
                   const std::vector<S>& items) {
  write_array(writer, key, items,
              [&](const S& item) { write_object(writer, fields, item); });
}

/// The optional category-keyed object `parent["categories"]`: `read_entry`
/// gets each member's category, value and path, in document order.
template <typename ReadEntry>
ParseError read_categories(const JsonValue& parent, const std::string& path,
                           ReadEntry read_entry) {
  const JsonValue* categories = parent.find("categories");
  if (categories == nullptr) return std::nullopt;
  const std::string categories_path = join(path, "categories");
  if (auto e = expect_object(*categories, categories_path)) return e;
  for (const JsonValue::Member& member : categories->as_object()) {
    const auto category = category_from_string(member.first);
    if (!category) {
      return categories_path + ": unknown category name '" + member.first + "'";
    }
    const std::string entry_path = join(categories_path, member.first);
    if (auto e = read_entry(*category, member.second, entry_path)) return e;
  }
  return std::nullopt;
}

// ---- "period" and "population" ----------------------------------------------

constexpr Field<PeriodSpec> kPeriodFields[] = {
    {"name", &PeriodSpec::name},
    {"dates", &PeriodSpec::dates},
    {"duration_ms", &PeriodSpec::duration},
};
/// The enum `mode` sits between `present` and the watermarks.
constexpr Field<PeriodSpec> kGoIpfsFields[] = {
    {"present", &PeriodSpec::go_ipfs_present},
    {"low_water", &PeriodSpec::go_low_water},
    {"high_water", &PeriodSpec::go_high_water},
};
constexpr Field<PeriodSpec> kHydraFields[] = {
    {"heads", &PeriodSpec::hydra_heads},
    {"low_water", &PeriodSpec::hydra_low_water},
    {"high_water", &PeriodSpec::hydra_high_water},
};
constexpr Field<PopulationSpec> kPopulationFields[] = {
    {"scale", &PopulationSpec::scale},
};
constexpr Field<PopulationCounts> kCountFields[] = {
    {"hydra_heads", &PopulationCounts::hydra_heads},
    {"core_servers", &PopulationCounts::core_servers},
    {"core_clients", &PopulationCounts::core_clients},
    {"normal_users", &PopulationCounts::normal_users},
    {"light_servers", &PopulationCounts::light_servers},
    {"disguised_storm", &PopulationCounts::disguised_storm},
    {"light_clients", &PopulationCounts::light_clients},
    {"crawlers", &PopulationCounts::crawlers},
    {"one_time_per_day", &PopulationCounts::one_time_per_day},
    {"ephemeral_per_day", &PopulationCounts::ephemeral_per_day},
    {"rotating_pids_per_day", &PopulationCounts::rotating_pids_per_day},
    {"ethereum_nodes", &PopulationCounts::ethereum_nodes},
    {"nat_groups", &PopulationCounts::nat_groups},
    {"nat_group_min", &PopulationCounts::nat_group_min},
    {"nat_group_max", &PopulationCounts::nat_group_max},
};
/// Preceded by the enum `session`.
constexpr Field<CategoryParams> kCategoryFields[] = {
    {"mean_session_ms", &CategoryParams::mean_session},
    {"mean_gap_ms", &CategoryParams::mean_gap},
    {"dht_server", &CategoryParams::dht_server},
    {"maintain_probability", &CategoryParams::maintain_probability},
    {"retention_mean_ms", &CategoryParams::retention_mean},
    {"queries_per_hour", &CategoryParams::queries_per_hour},
    {"query_duration_median_ms", &CategoryParams::query_duration_median},
    {"reconnect_after_trim", &CategoryParams::reconnect_after_trim},
    {"reconnect_backoff_mean_ms", &CategoryParams::reconnect_backoff_mean},
    {"crawl_visibility", &CategoryParams::crawl_visibility},
};

ParseError parse_go_ipfs(const JsonValue& value, const std::string& path,
                         PeriodSpec& period) {
  if (auto e = check_keys(value, path, {"mode"}, kGoIpfsFields)) return e;
  const Fields<PeriodSpec> fields(kGoIpfsFields);
  if (auto e = read_fields(value, path, fields.first(1), period)) return e;
  std::string mode;
  if (auto e = read_key(value, "mode", path, mode)) return e;
  if (mode == "server") {
    period.go_ipfs_mode = dht::Mode::kServer;
  } else if (mode == "client") {
    period.go_ipfs_mode = dht::Mode::kClient;
  } else if (!mode.empty()) {
    return join(path, "mode") + ": expected \"server\" or \"client\"";
  }
  return read_fields(value, path, fields.subspan(1), period);
}

ParseError parse_period(const JsonValue& value, const std::string& path,
                        PeriodSpec& period) {
  if (auto e = read_object(value, path, kPeriodFields, period, {"go_ipfs", "hydra"})) {
    return e;
  }
  if (auto e = read_key(value, "go_ipfs", path, period, parse_go_ipfs)) return e;
  return read_section(value, "hydra", path, kHydraFields, period);
}

void write_period(JsonWriter& writer, const PeriodSpec& period) {
  const Fields<PeriodSpec> go_ipfs(kGoIpfsFields);
  writer.begin_object();
  write_fields(writer, kPeriodFields, period);
  writer.key("go_ipfs");
  writer.begin_object();
  write_fields(writer, go_ipfs.first(1), period);
  writer.field("mode",
               period.go_ipfs_mode == dht::Mode::kServer ? "server" : "client");
  write_fields(writer, go_ipfs.subspan(1), period);
  writer.end_object();
  writer.key("hydra");
  write_object(writer, kHydraFields, period);
  writer.end_object();
}

ParseError parse_population(const JsonValue& value, const std::string& path,
                            PopulationSpec& population) {
  if (auto e = read_object(value, path, kPopulationFields, population,
                           {"counts", "categories"})) {
    return e;
  }
  if (auto e = read_section(value, "counts", path, kCountFields, population.counts)) {
    return e;
  }
  return read_categories(value, path, [&](Category category, const JsonValue& entry,
                                          const std::string& entry_path) -> ParseError {
    if (auto e = check_keys(entry, entry_path, {"session"}, kCategoryFields)) return e;
    // Absent fields keep the calibrated value.
    CategoryParams params = default_params(category);
    std::string session;
    if (auto e = read_key(entry, "session", entry_path, session)) return e;
    if (!session.empty()) {
      const auto kind = session_kind_from_string(session);
      if (!kind) {
        return join(entry_path, "session") +
               ": expected \"always-on\", \"recurring\" or \"one-shot\"";
      }
      params.session = *kind;
    }
    if (auto e = read_fields(entry, entry_path, kCategoryFields, params)) return e;
    params.category = category;
    population.set_override(category, params);
    return std::nullopt;
  });
}

void write_population(JsonWriter& writer, const PopulationSpec& population) {
  writer.begin_object();
  write_fields(writer, kPopulationFields, population);
  writer.key("counts");
  write_object(writer, kCountFields, population.counts);
  writer.key("categories");
  writer.begin_object();
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto& params = population.overrides[i];
    if (!params) continue;
    writer.key(to_string(static_cast<Category>(i)));
    writer.begin_object();
    writer.field("session", to_string(params->session));
    write_fields(writer, kCategoryFields, *params);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
}

// ---- the "network" section (net::ConditionSpec) -----------------------------

constexpr Field<net::ConditionSpec> kNetworkFields[] = {
    {"symmetric", &net::ConditionSpec::symmetric},
};
constexpr Field<net::LatencyModel> kLatencyFields[] = {
    {"flat_min_ms", &net::LatencyModel::min_one_way},
    {"flat_max_ms", &net::LatencyModel::max_one_way},
    {"jitter_fraction", &net::LatencyModel::jitter_fraction},
};
constexpr Field<net::ZoneSpec> kZoneFields[] = {
    {"name", &net::ZoneSpec::name},
    {"weight", &net::ZoneSpec::weight},
    {"intra_min_ms", &net::ZoneSpec::intra_min},
    {"intra_max_ms", &net::ZoneSpec::intra_max},
};
constexpr Field<net::DefaultLinkSpec> kDefaultLinkFields[] = {
    {"min_ms", &net::DefaultLinkSpec::min_one_way},
    {"max_ms", &net::DefaultLinkSpec::max_one_way},
};
constexpr Field<net::ZoneLinkSpec> kLinkFields[] = {
    {"from", &net::ZoneLinkSpec::from},
    {"to", &net::ZoneLinkSpec::to},
    {"min_ms", &net::ZoneLinkSpec::min_one_way},
    {"max_ms", &net::ZoneLinkSpec::max_one_way},
};
constexpr Field<net::LossSpec> kLossFields[] = {
    {"dial_failure", &net::LossSpec::dial_failure},
    {"message_loss", &net::LossSpec::message_loss},
};
constexpr Field<net::NatClassSpec> kNatClassFields[] = {
    {"name", &net::NatClassSpec::name},
    {"weight", &net::NatClassSpec::weight},
    {"accepts_inbound", &net::NatClassSpec::accepts_inbound},
};
/// Preceded by the enum `kind` and the kind's `zone` or `zones`.
constexpr Field<net::DisturbanceSpec> kDisturbanceFields[] = {
    {"from_ms", &net::DisturbanceSpec::from},
    {"until_ms", &net::DisturbanceSpec::until},
    {"period_ms", &net::DisturbanceSpec::period},
};
constexpr Field<net::DisturbanceSpec> kDegradeFields[] = {
    {"latency_factor", &net::DisturbanceSpec::latency_factor},
    {"extra_loss", &net::DisturbanceSpec::extra_loss},
};

/// Key sets are per kind, so e.g. a latency_factor on an outage is a typo
/// caught at validate time, not silently ignored.
Fields<net::DisturbanceSpec> degrade_fields(net::DisturbanceSpec::Kind kind) {
  if (kind == net::DisturbanceSpec::Kind::kDegrade) return kDegradeFields;
  return {};
}

ParseError parse_nat(const JsonValue& value, const std::string& path,
                     net::NatSpec& nat) {
  if (auto e = check_keys(value, path, {"classes", "categories"})) return e;
  if (auto e = read_objects(value, "classes", path, kNatClassFields, nat.classes)) {
    return e;
  }
  return read_categories(value, path, [&](Category category, const JsonValue& entry,
                                          const std::string& entry_path) -> ParseError {
    if (!entry.is_string()) return entry_path + ": expected a class name";
    nat.categories.emplace_back(to_string(category), entry.as_string());
    return std::nullopt;
  });
}

ParseError parse_disturbance(const JsonValue& value, const std::string& path,
                             net::DisturbanceSpec& disturbance) {
  using Kind = net::DisturbanceSpec::Kind;
  if (auto e = expect_object(value, path)) return e;
  std::string kind;
  if (auto e = read_key(value, "kind", path, kind)) return e;
  const auto parsed_kind = net::disturbance_kind_from_string(kind);
  if (!parsed_kind) {
    return join(path, "kind") + ": expected \"outage\", \"partition\" or \"degrade\"";
  }
  disturbance.kind = *parsed_kind;
  const Fields<net::DisturbanceSpec> degrade = degrade_fields(disturbance.kind);
  const std::string_view zone_key =
      disturbance.kind == Kind::kPartition ? "zones" : "zone";
  if (auto e = check_keys(value, path, {"kind", zone_key}, kDisturbanceFields,
                          degrade)) {
    return e;
  }
  if (auto e = read_key(value, "zone", path, disturbance.zone)) return e;
  if (const JsonValue* zones = value.find("zones")) {
    const std::string zones_path = join(path, "zones");
    if (!zones->is_array()) return zones_path + ": expected an array of zone names";
    for (const JsonValue& zone : zones->as_array()) {
      if (!zone.is_string()) return zones_path + ": expected an array of zone names";
      disturbance.zones.push_back(zone.as_string());
    }
  }
  if (auto e = read_fields(value, path, kDisturbanceFields, disturbance)) return e;
  return read_fields(value, path, degrade, disturbance);
}

ParseError parse_network(const JsonValue& value, const std::string& path,
                         net::ConditionSpec& network) {
  if (auto e = check_keys(value, path,
                          {"latency", "zones", "default_link", "links", "loss", "nat",
                           "disturbances"},
                          kNetworkFields)) {
    return e;
  }
  if (auto e = read_section(value, "latency", path, kLatencyFields, network.latency)) {
    return e;
  }
  if (auto e = read_fields(value, path, kNetworkFields, network)) return e;
  if (auto e = read_objects(value, "zones", path, kZoneFields, network.zones)) return e;
  if (auto e = read_section(value, "default_link", path, kDefaultLinkFields,
                            network.default_link)) {
    return e;
  }
  if (auto e = read_objects(value, "links", path, kLinkFields, network.links)) return e;
  if (auto e = read_section(value, "loss", path, kLossFields, network.loss)) return e;
  if (auto e = read_key(value, "nat", path, network.nat, parse_nat)) return e;
  return read_array(value, "disturbances", path, network.disturbances,
                    parse_disturbance);
}

void write_disturbance(JsonWriter& writer, const net::DisturbanceSpec& disturbance) {
  using Kind = net::DisturbanceSpec::Kind;
  writer.begin_object();
  writer.field("kind", net::to_string(disturbance.kind));
  // An outage always names its zone; a degrade only when it is not global.
  if (disturbance.kind == Kind::kPartition) {
    write_array(writer, "zones", disturbance.zones,
                [&](const std::string& zone) { writer.value(zone); });
  } else if (disturbance.kind == Kind::kOutage || !disturbance.zone.empty()) {
    writer.field("zone", disturbance.zone);
  }
  write_fields(writer, kDisturbanceFields, disturbance);
  write_fields(writer, degrade_fields(disturbance.kind), disturbance);
  writer.end_object();
}

void write_network(JsonWriter& writer, const net::ConditionSpec& network) {
  writer.begin_object();
  writer.key("latency");
  write_object(writer, kLatencyFields, network.latency);
  write_fields(writer, kNetworkFields, network);
  write_objects(writer, "zones", kZoneFields, network.zones);
  writer.key("default_link");
  write_object(writer, kDefaultLinkFields, network.default_link);
  write_objects(writer, "links", kLinkFields, network.links);
  writer.key("loss");
  write_object(writer, kLossFields, network.loss);
  writer.key("nat");
  writer.begin_object();
  write_objects(writer, "classes", kNatClassFields, network.nat.classes);
  writer.key("categories");
  writer.begin_object();
  for (const auto& [category, class_name] : network.nat.categories) {
    writer.field(category, class_name);
  }
  writer.end_object();
  writer.end_object();
  write_array(writer, "disturbances", network.disturbances,
              [&](const net::DisturbanceSpec& disturbance) {
                write_disturbance(writer, disturbance);
              });
  writer.end_object();
}

// ---- the "churn" section (scenario::ChurnSpec) ------------------------------

constexpr Field<ChurnSpec> kChurnFields[] = {
    {"initial_online", &ChurnSpec::initial_online},
    {"sample_interval_ms", &ChurnSpec::sample_interval},
};
constexpr Field<DiurnalSpec> kDiurnalFields[] = {
    {"amplitude", &DiurnalSpec::amplitude},
    {"period_ms", &DiurnalSpec::period},
    {"phase_ms", &DiurnalSpec::phase},
};
constexpr Field<SessionDistribution> kExponentialFields[] = {
    {"mean_ms", &SessionDistribution::mean_ms},
};
constexpr Field<SessionDistribution> kWeibullFields[] = {
    {"shape", &SessionDistribution::shape},
    {"scale_ms", &SessionDistribution::scale_ms},
};
constexpr Field<SessionDistribution> kLognormalFields[] = {
    {"median_ms", &SessionDistribution::median_ms},
    {"sigma", &SessionDistribution::sigma},
};

/// Key sets are per kind, so e.g. a weibull `shape` on an exponential is a
/// typo caught at validate time, not silently ignored.
Fields<SessionDistribution> distribution_fields(SessionDistribution::Kind kind) {
  switch (kind) {
    case SessionDistribution::Kind::kExponential: return kExponentialFields;
    case SessionDistribution::Kind::kWeibull: return kWeibullFields;
    case SessionDistribution::Kind::kLognormal: return kLognormalFields;
  }
  return {};
}

ParseError parse_distribution(const JsonValue& value, const std::string& path,
                              SessionDistribution& distribution) {
  if (auto e = expect_object(value, path)) return e;
  std::string kind;
  if (auto e = read_key(value, "kind", path, kind)) return e;
  const auto parsed_kind = distribution_kind_from_string(kind);
  if (!parsed_kind) {
    return join(path, "kind") +
           ": expected \"exponential\", \"weibull\" or \"lognormal\"";
  }
  // A fresh distribution: nothing carries over from the one it replaces.
  SessionDistribution parsed;
  parsed.kind = *parsed_kind;
  const Fields<SessionDistribution> fields = distribution_fields(parsed.kind);
  if (auto e = check_keys(value, path, {"kind"}, fields)) return e;
  if (auto e = read_fields(value, path, fields, parsed)) return e;
  distribution = parsed;
  return std::nullopt;
}

void write_distribution(JsonWriter& writer, const SessionDistribution& distribution) {
  writer.begin_object();
  writer.field("kind", to_string(distribution.kind));
  write_fields(writer, distribution_fields(distribution.kind), distribution);
  writer.end_object();
}

ParseError parse_churn(const JsonValue& value, const std::string& path,
                       ChurnSpec& churn) {
  if (auto e = check_keys(value, path, {"session", "gap", "diurnal", "categories"},
                          kChurnFields)) {
    return e;
  }
  if (auto e = read_key(value, "session", path, churn.session, parse_distribution)) {
    return e;
  }
  if (auto e = read_key(value, "gap", path, churn.gap, parse_distribution)) return e;
  if (auto e = read_fields(value, path, kChurnFields, churn)) return e;
  if (value.find("diurnal") != nullptr) {
    DiurnalSpec& diurnal = churn.diurnal.emplace();
    if (auto e = read_section(value, "diurnal", path, kDiurnalFields, diurnal)) {
      return e;
    }
  }
  return read_categories(value, path, [&](Category category, const JsonValue& entry,
                                          const std::string& entry_path) -> ParseError {
    if (auto e = check_keys(entry, entry_path, {"session", "gap"})) return e;
    // Absent fields inherit the spec's top-level distributions.
    ChurnCategorySpec parsed{
        .category = category, .session = churn.session, .gap = churn.gap};
    if (auto e = read_key(entry, "session", entry_path, parsed.session,
                          parse_distribution)) {
      return e;
    }
    if (auto e = read_key(entry, "gap", entry_path, parsed.gap, parse_distribution)) {
      return e;
    }
    churn.categories.push_back(std::move(parsed));
    return std::nullopt;
  });
}

void write_churn(JsonWriter& writer, const ChurnSpec& churn) {
  writer.begin_object();
  write_key(writer, "session", churn.session, write_distribution);
  write_key(writer, "gap", churn.gap, write_distribution);
  write_fields(writer, kChurnFields, churn);
  if (churn.diurnal) {
    writer.key("diurnal");
    write_object(writer, kDiurnalFields, *churn.diurnal);
  }
  writer.key("categories");
  writer.begin_object();
  for (const ChurnCategorySpec& entry : churn.categories) {
    writer.key(to_string(entry.category));
    writer.begin_object();
    write_key(writer, "session", entry.session, write_distribution);
    write_key(writer, "gap", entry.gap, write_distribution);
    writer.end_object();
  }
  writer.end_object();
  writer.end_object();
}

// ---- the "content" section (scenario::ContentSpec) --------------------------

constexpr Field<ContentSpec> kContentFields[] = {
    {"keys", &ContentSpec::keys},
    {"publishes_per_peer", &ContentSpec::publishes_per_peer},
    {"fetches_per_hour", &ContentSpec::fetches_per_hour},
    {"provider_ttl_ms", &ContentSpec::provider_ttl},
    {"republish_interval_ms", &ContentSpec::republish_interval},
    {"publish_spread_ms", &ContentSpec::publish_spread},
    {"bucket_refresh_interval_ms", &ContentSpec::bucket_refresh_interval},
    {"replacement_cache_size", &ContentSpec::replacement_cache_size},
    {"sample_interval_ms", &ContentSpec::sample_interval},
    {"fetch_success", &ContentSpec::fetch_success},
};
constexpr Field<ContentCategorySpec> kContentCategoryFields[] = {
    {"publishes_per_peer", &ContentCategorySpec::publishes_per_peer},
    {"fetches_per_hour", &ContentCategorySpec::fetches_per_hour},
};

ParseError parse_content(const JsonValue& value, const std::string& path,
                         ContentSpec& content) {
  if (auto e = read_object(value, path, kContentFields, content, {"categories"})) {
    return e;
  }
  return read_categories(value, path, [&](Category category, const JsonValue& entry,
                                          const std::string& entry_path) -> ParseError {
    // Absent fields inherit the spec's top-level rates.
    ContentCategorySpec parsed{.category = category,
                               .publishes_per_peer = content.publishes_per_peer,
                               .fetches_per_hour = content.fetches_per_hour};
    if (auto e = read_object(entry, entry_path, kContentCategoryFields, parsed)) {
      return e;
    }
    content.categories.push_back(std::move(parsed));
    return std::nullopt;
  });
}

void write_content(JsonWriter& writer, const ContentSpec& content) {
  writer.begin_object();
  write_fields(writer, kContentFields, content);
  writer.key("categories");
  writer.begin_object();
  for (const ContentCategorySpec& entry : content.categories) {
    writer.key(to_string(entry.category));
    write_object(writer, kContentCategoryFields, entry);
  }
  writer.end_object();
  writer.end_object();
}

// ---- the "phases" section (scenario::PhaseProgramSpec) ----------------------

/// Preceded by the optional `name` and the enum `mode`.  Parsing checks
/// `hold_ms > 0` right after reading it, before the rates.
constexpr Field<PhaseSpec> kPhaseFields[] = {
    {"hold_ms", &PhaseSpec::hold},
    {"churn_rate", &PhaseSpec::churn_rate},
    {"fetch_rate", &PhaseSpec::fetch_rate},
    {"publish_rate", &PhaseSpec::publish_rate},
    {"crawl_rate", &PhaseSpec::crawl_rate},
    {"population", &PhaseSpec::population},
};
constexpr Field<PhaseSpec> kBurstFields[] = {
    {"switch_ms", &PhaseSpec::switch_interval},
};
constexpr Field<PhaseSpec> kFlashCrowdFields[] = {
    {"hot_key", &PhaseSpec::hot_key},
    {"spike", &PhaseSpec::spike},
    {"hot_fraction", &PhaseSpec::hot_fraction},
};

/// Mode-specific key sets, like the network disturbance kinds: a burst
/// field on a hold phase is a schema error, not dead configuration.
Fields<PhaseSpec> mode_fields(PhaseMode mode) {
  switch (mode) {
    case PhaseMode::kBurst: return kBurstFields;
    case PhaseMode::kFlashCrowd: return kFlashCrowdFields;
    case PhaseMode::kHold:
    case PhaseMode::kRamp: return {};
  }
  return {};
}

ParseError parse_phase(const JsonValue& value, const std::string& path,
                       PhaseSpec& phase) {
  if (auto e = expect_object(value, path)) return e;
  const JsonValue* mode = value.find("mode");
  if (mode == nullptr) return path + ": mode is required";
  if (!mode->is_string()) return join(path, "mode") + ": expected a string";
  const auto parsed_mode = phase_mode_from_string(mode->as_string());
  if (!parsed_mode) {
    return join(path, "mode") +
           ": expected \"hold\", \"ramp\", \"burst\" or \"flash_crowd\"";
  }
  phase.mode = *parsed_mode;
  const Fields<PhaseSpec> mode_specific = mode_fields(phase.mode);
  if (auto e = check_keys(value, path, {"name", "mode"}, kPhaseFields, mode_specific)) {
    return e;
  }
  if (auto e = read_key(value, "name", path, phase.name)) return e;
  const Fields<PhaseSpec> fields(kPhaseFields);
  if (auto e = read_fields(value, path, fields.first(1), phase)) return e;
  if (phase.hold <= 0) return path + ": hold_ms must be > 0";
  if (auto e = read_fields(value, path, fields.subspan(1), phase)) return e;
  if (auto e = read_fields(value, path, mode_specific, phase)) return e;
  if (phase.mode == PhaseMode::kBurst && phase.switch_interval <= 0) {
    return path + ": switch_ms must be > 0";
  }
  return std::nullopt;
}

ParseError parse_phases(const JsonValue& value, const std::string& path,
                        PhaseProgramSpec& phases) {
  if (auto e = check_keys(value, path, {"diurnal_clock", "program"})) return e;
  if (const JsonValue* clock = value.find("diurnal_clock")) {
    if (!clock->is_string() || clock->as_string() != "absolute") {
      return join(path, "diurnal_clock") + ": expected \"absolute\"";
    }
    phases.diurnal_clock_absolute = true;
  }
  if (value.find("program") == nullptr) return join(path, "program") + ": required";
  if (auto e = read_array(value, "program", path, phases.program, parse_phase)) {
    return e;
  }
  // Value-range rules (positivity, population in (0, 1], flash bounds):
  // one source of truth for files and programmatic specs alike.
  return PhaseProgramSpec::validate(phases);
}

void write_phases(JsonWriter& writer, const PhaseProgramSpec& phases) {
  writer.begin_object();
  if (phases.diurnal_clock_absolute) writer.field("diurnal_clock", "absolute");
  write_array(writer, "program", phases.program, [&](const PhaseSpec& phase) {
    writer.begin_object();
    if (!phase.name.empty()) writer.field("name", phase.name);
    writer.field("mode", to_string(phase.mode));
    write_fields(writer, kPhaseFields, phase);
    write_fields(writer, mode_fields(phase.mode), phase);
    writer.end_object();
  });
  writer.end_object();
}

// ---- the document, "campaign" and "output" ----------------------------------

constexpr Field<ScenarioSpec> kScenarioFields[] = {
    {"name", &ScenarioSpec::name},
    {"description", &ScenarioSpec::description},
};
/// The nested "crawler" section sits between the campaign's two tables.
constexpr Field<CampaignSettings> kCampaignFields[] = {
    {"seed", &CampaignSettings::seed},
    {"trials", &CampaignSettings::trials},
    {"workers", &CampaignSettings::workers},
    {"vantage_visibility", &CampaignSettings::vantage_visibility},
};
constexpr Field<CampaignSettings> kCrawlerFields[] = {
    {"enabled", &CampaignSettings::enable_crawler},
    {"interval_ms", &CampaignSettings::crawl_interval},
};
constexpr Field<CampaignSettings> kCampaignTailFields[] = {
    {"metadata_dynamics", &CampaignSettings::enable_metadata_dynamics},
    {"client_dials_per_hour", &CampaignSettings::client_dials_per_hour},
};
/// Followed by `role_filter`, a dataset role name or null.
constexpr Field<OutputSettings> kOutputFields[] = {
    {"pretty", &OutputSettings::pretty},
    {"include_connections", &OutputSettings::include_connections},
};

ParseError parse_campaign(const JsonValue& value, const std::string& path,
                          CampaignSettings& campaign) {
  if (auto e = check_keys(value, path, {"crawler"}, kCampaignFields,
                          kCampaignTailFields)) {
    return e;
  }
  if (auto e = read_fields(value, path, kCampaignFields, campaign)) return e;
  if (auto e = read_section(value, "crawler", path, kCrawlerFields, campaign)) return e;
  return read_fields(value, path, kCampaignTailFields, campaign);
}

void write_campaign(JsonWriter& writer, const CampaignSettings& campaign) {
  writer.begin_object();
  write_fields(writer, kCampaignFields, campaign);
  writer.key("crawler");
  write_object(writer, kCrawlerFields, campaign);
  write_fields(writer, kCampaignTailFields, campaign);
  writer.end_object();
}

ParseError parse_output(const JsonValue& value, const std::string& path,
                        OutputSettings& output) {
  if (auto e = read_object(value, path, kOutputFields, output, {"role_filter"})) {
    return e;
  }
  if (const JsonValue* filter = value.find("role_filter")) {
    if (filter->is_null()) {
      output.role_filter = std::nullopt;
    } else if (filter->is_string()) {
      const auto role = measure::role_from_string(filter->as_string());
      if (!role) {
        return join(path, "role_filter") + ": unknown dataset role '" +
               filter->as_string() + "'";
      }
      output.role_filter = role;
    } else {
      return join(path, "role_filter") + ": expected a string or null";
    }
  }
  return std::nullopt;
}

void write_output(JsonWriter& writer, const OutputSettings& output) {
  writer.begin_object();
  write_fields(writer, kOutputFields, output);
  writer.key("role_filter");
  output.role_filter ? writer.value(measure::to_string(*output.role_filter))
                     : writer.null();
  writer.end_object();
}

// ---- validation helpers -----------------------------------------------------

std::optional<std::string> validate_category(const CategoryParams& params,
                                             Category category) {
  const std::string prefix =
      "population.categories." + std::string(to_string(category)) + ": ";
  if (params.mean_session < 0) return prefix + "mean_session_ms must be >= 0";
  if (params.mean_gap < 0) return prefix + "mean_gap_ms must be >= 0";
  if (params.retention_mean < 0) return prefix + "retention_mean_ms must be >= 0";
  if (params.query_duration_median < 0) {
    return prefix + "query_duration_median_ms must be >= 0";
  }
  if (params.reconnect_backoff_mean < 0) {
    return prefix + "reconnect_backoff_mean_ms must be >= 0";
  }
  if (params.maintain_probability < 0.0 || params.maintain_probability > 1.0) {
    return prefix + "maintain_probability must be in [0, 1]";
  }
  if (params.crawl_visibility < 0.0 || params.crawl_visibility > 1.0) {
    return prefix + "crawl_visibility must be in [0, 1]";
  }
  if (params.queries_per_hour < 0.0) return prefix + "queries_per_hour must be >= 0";
  if (params.session == SessionKind::kRecurring && params.mean_session <= 0) {
    return prefix + "recurring sessions need mean_session_ms > 0";
  }
  return std::nullopt;
}

}  // namespace

// ---- (de)serialisation ------------------------------------------------------

std::expected<ScenarioSpec, std::string> ScenarioSpec::from_json(
    std::string_view text) {
  auto document = JsonValue::parse(text);
  if (!document) return std::unexpected(std::move(document).error());
  const JsonValue& root = *document;
  ScenarioSpec spec;
  ParseError e = check_keys(root, "document",
                            {"period", "population", "network", "churn", "content",
                             "phases", "campaign", "output"},
                            kScenarioFields);
  if (!e) e = read_fields(root, "", kScenarioFields, spec);
  if (!e) e = read_key(root, "period", "", spec.period, parse_period);
  if (!e) e = read_key(root, "population", "", spec.population, parse_population);
  if (!e) e = read_key(root, "network", "", spec.network, parse_network);
  if (!e) e = read_key(root, "churn", "", spec.churn, parse_churn);
  if (!e) e = read_key(root, "content", "", spec.content, parse_content);
  if (!e) e = read_key(root, "phases", "", spec.phases, parse_phases);
  if (!e) e = read_key(root, "campaign", "", spec.campaign, parse_campaign);
  if (!e) e = read_key(root, "output", "", spec.output, parse_output);
  if (!e) e = validate(spec);
  if (e) return std::unexpected(std::move(*e));
  return spec;
}

std::expected<ScenarioSpec, std::string> ScenarioSpec::from_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::unexpected(path + ": cannot open file");
  std::ostringstream contents;
  contents << in.rdbuf();
  auto spec = from_json(contents.str());
  if (!spec) return std::unexpected(path + ": " + std::move(spec).error());
  return spec;
}

void ScenarioSpec::to_json(JsonWriter& writer) const {
  writer.begin_object();
  write_fields(writer, kScenarioFields, *this);
  write_key(writer, "period", period, write_period);
  write_key(writer, "population", population, write_population);
  write_key(writer, "network", network, write_network);
  write_key(writer, "churn", churn, write_churn);
  write_key(writer, "content", content, write_content);
  write_key(writer, "phases", phases, write_phases);
  write_key(writer, "campaign", campaign, write_campaign);
  write_key(writer, "output", output, write_output);
  writer.end_object();
}

std::string ScenarioSpec::to_json_string() const {
  std::ostringstream out;
  JsonWriter writer(out, /*pretty=*/true);
  to_json(writer);
  out << "\n";
  return out.str();
}

// ---- validation -------------------------------------------------------------

std::optional<std::string> ScenarioSpec::validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) return "name must be non-empty";
  if (spec.campaign.trials == 0) return "campaign.trials must be >= 1";
  const PopulationCounts& counts = spec.population.counts;
  if (counts.nat_group_min < 1) {
    return "population.counts.nat_group_min must be >= 1";
  }
  if (counts.nat_group_max < counts.nat_group_min) {
    return "population.counts: nat_group_max must be >= nat_group_min";
  }
  if (counts.disguised_storm > counts.light_servers) {
    return "population.counts: disguised_storm cannot exceed light_servers";
  }
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto& overridden = spec.population.overrides[i];
    if (!overridden) continue;
    if (overridden->category != static_cast<Category>(i)) {
      return "population.categories." +
             std::string(to_string(static_cast<Category>(i))) +
             ": override stored under the wrong category slot";
    }
    if (auto e = validate_category(*overridden, static_cast<Category>(i))) return e;
  }
  if (spec.network) {
    // `ConditionSpec::validate` (run by the engine check below) treats NAT
    // category keys as opaque; only the scenario layer knows the alphabet.
    for (const auto& [category, class_name] : spec.network->nat.categories) {
      if (!category_from_string(category)) {
        return "network.nat.categories: unknown category name '" + category + "'";
      }
    }
  }
  // Everything the engine itself would refuse (duration, watermarks,
  // visibility, crawl interval, dial rate, scale, network conditions,
  // phase programs) — checked before the horizon rules below so a
  // structurally broken section reports its own error first.
  if (auto e = CampaignEngine::validate(spec.to_campaign_config())) return e;
  // Schedule-fits-horizon rules: a cadence or window that cannot fire
  // within `period.duration` is a broken schedule, not a quiet no-op.
  // This is what `ipfs_sim run --duration` re-validates after shortening
  // the horizon, so truncated schedules fail loudly with the field that
  // no longer fits.
  if (spec.churn && spec.churn->sample_interval > spec.period.duration) {
    return "churn.sample_interval_ms: exceeds period.duration_ms — no "
           "population sample would ever fire";
  }
  if (spec.content) {
    if (spec.content->sample_interval > spec.period.duration) {
      return "content.sample_interval_ms: exceeds period.duration_ms — no "
             "content sample would ever fire";
    }
    if (spec.content->republish_interval > spec.period.duration) {
      return "content.republish_interval_ms: exceeds period.duration_ms — no "
             "republish cycle would ever fire";
    }
  }
  if (spec.network) {
    for (std::size_t i = 0; i < spec.network->disturbances.size(); ++i) {
      if (spec.network->disturbances[i].from >= spec.period.duration) {
        return "network.disturbances[" + std::to_string(i) +
               "].from_ms: begins at or after period.duration_ms — the "
               "window would never open";
      }
    }
  }
  return std::nullopt;
}

// ---- execution --------------------------------------------------------------

CampaignConfig ScenarioSpec::to_campaign_config() const {
  // Every member is set, so `period`'s default initialiser (P4(), i.e.
  // builtins()) never runs: building the builtins validates through here.
  return CampaignConfig{
      .period = period,
      .population = population,
      .seed = campaign.seed,
      .vantage_visibility = campaign.vantage_visibility,
      .enable_crawler = campaign.enable_crawler,
      .crawl_interval = campaign.crawl_interval,
      .enable_metadata_dynamics = campaign.enable_metadata_dynamics,
      .client_dials_per_hour = campaign.client_dials_per_hour,
      .conditions = network,
      .churn = churn,
      .content = content,
      .phases = phases,
  };
}

std::vector<std::uint64_t> ScenarioSpec::trial_seeds() const {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(campaign.trials);
  for (std::uint32_t i = 0; i < campaign.trials; ++i) {
    seeds.push_back(campaign.seed + i);
  }
  return seeds;
}

}  // namespace ipfs::scenario
