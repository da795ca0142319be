// The builtin scenario catalogue: the checked-in scenarios/*.json files,
// compiled into the library byte for byte and parsed on first use
// (DESIGN.md §8).
//
// The assembler's `.incbin` copies each file into .rodata, so the JSON
// files are the only spelling of the builtins: there is no generator and
// no second copy in C++.  The compiler passes its `-I` directories on to
// the assembler, and every build of src/ has src/ on that path, so
// "scenario/../../scenarios/NAME.json" resolves to the repository's
// scenarios/ directory.  The root CMakeLists.txt makes this file depend on
// scenarios/*.json, so editing one rebuilds the catalogue.
//
// To add a builtin: drop NAME.json into scenarios/ and append NAME to the
// list below.  The list order is the `ipfs_sim list` order.
#include <algorithm>
#include <stdexcept>

#include "scenario/scenario_spec.hpp"

#define IPFS_BUILTIN_SCENARIOS(X)                                        \
  X(p0) X(p1) X(p2) X(p3) X(p4) X(long14d) X(nat_heavy) X(crawler_storm) \
  X(weekend_diurnal) X(geo_zones) X(flaky_links) X(zone_partition)       \
  X(churn_baseline) X(diurnal_churn) X(content_baseline) X(flash_fetch)  \
  X(flash_crowd) X(load_ramp) X(burst_storm)

#define IPFS_EMBED_SCENARIO(name)                             \
  asm(".pushsection .rodata\n"                                \
      "ipfs_scenario_" #name ":\n"                            \
      ".incbin \"scenario/../../scenarios/" #name ".json\"\n" \
      "ipfs_scenario_" #name "_end:\n"                        \
      ".popsection\n");                                       \
  extern "C" const char ipfs_scenario_##name[];               \
  extern "C" const char ipfs_scenario_##name##_end[];

#define IPFS_SCENARIO_ENTRY(name) \
  {#name ".json", {ipfs_scenario_##name, ipfs_scenario_##name##_end}},

namespace ipfs::scenario {

IPFS_BUILTIN_SCENARIOS(IPFS_EMBED_SCENARIO)

std::span<const EmbeddedScenario> embedded_scenarios() {
  static const EmbeddedScenario kFiles[] = {
      IPFS_BUILTIN_SCENARIOS(IPFS_SCENARIO_ENTRY)};
  return kFiles;
}

std::string scenario_file_name(std::string_view name) {
  std::string file(name);
  std::ranges::replace(file, '-', '_');
  return file + ".json";
}

const std::vector<ScenarioSpec>& ScenarioSpec::builtins() {
  static const std::vector<ScenarioSpec> kBuiltins = [] {
    std::vector<ScenarioSpec> all;
    for (const EmbeddedScenario& file : embedded_scenarios()) {
      auto spec = from_json(file.text);
      // The texts are compiled in: one that does not parse is a build
      // defect, never a builtin to skip.
      if (!spec) {
        throw std::logic_error("builtin scenario " + std::string(file.file) +
                               ": " + spec.error());
      }
      all.push_back(std::move(*spec));
    }
    return all;
  }();
  return kBuiltins;
}

std::optional<ScenarioSpec> ScenarioSpec::builtin(std::string_view name) {
  for (const ScenarioSpec& spec : builtins()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

}  // namespace ipfs::scenario
