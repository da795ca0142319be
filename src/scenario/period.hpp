// Measurement-period parameters and the paper's Table I presets.
//
// The presets here are thin wrappers over `scenario::ScenarioSpec`
// builtins (scenario_spec.hpp), which are the editable `scenarios/*.json`
// files compiled in — the files are the single source of truth, runnable
// via the `ipfs_sim` CLI (`ipfs_sim run scenarios/p4.json`).
//
//   Period  Dates                    Low   High  go-ipfs  Hydra heads
//   P0      2021-12-03 – 2021-12-06  600   900   Server   3 (1.2k/1.8k)
//   P1      2021-12-09 – 2021-12-10  2k    4k    Server   2
//   P2      2021-12-13 – 2021-12-14  18k   20k   Server   2
//   P3      2022-02-16 – 2022-02-17  18k   20k   Client   –
//   P4      2021-12-10 – 2021-12-13  18k   20k   Server   –
// plus the ≈14-day run (2022-03-29 – 2022-04-12) behind Fig. 6.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "dht/kad.hpp"
#include "p2p/conn_manager.hpp"

namespace ipfs::scenario {

/// Configuration of one measurement period.
struct PeriodSpec {
  std::string name;
  std::string dates;  ///< documentation only (simulated clocks start at 0)
  common::SimDuration duration = common::kDay;

  bool go_ipfs_present = true;
  dht::Mode go_ipfs_mode = dht::Mode::kServer;
  int go_low_water = 600;
  int go_high_water = 900;

  int hydra_heads = 0;  ///< 0 = hydra absent
  int hydra_low_water = 1200;
  int hydra_high_water = 1800;

  [[nodiscard]] bool operator==(const PeriodSpec&) const = default;

  [[nodiscard]] static PeriodSpec P0();
  [[nodiscard]] static PeriodSpec P1();
  [[nodiscard]] static PeriodSpec P2();
  [[nodiscard]] static PeriodSpec P3();
  [[nodiscard]] static PeriodSpec P4();
  /// The ~14-day PID-growth measurement behind Fig. 6.
  [[nodiscard]] static PeriodSpec Long14d();

  /// All Table I periods in order.
  [[nodiscard]] static std::vector<PeriodSpec> table1();
};

}  // namespace ipfs::scenario
