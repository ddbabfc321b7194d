// Incremental-STA benchmark: the placement flow run with the dirty-frontier
// update() engine versus the same flow forced to full recomputes
// (StaConfig::incremental = false). Reports wall-clock speedup and the
// reduction in propagated pin updates (the engine's work metric).
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "core/rlccd.h"

namespace rlccd {
namespace {

struct FlowCost {
  double seconds = 0.0;
  std::uint64_t pin_updates = 0;
  double tns = 0.0;
};

FlowCost measure_flow(const Design& d, bool incremental, int repeats) {
  FlowConfig cfg =
      default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  StaConfig sta_cfg = d.sta_config;
  sta_cfg.incremental = incremental;

  FlowCost best;
  for (int r = 0; r < repeats; ++r) {
    Netlist work = *d.netlist;
    auto t0 = std::chrono::steady_clock::now();
    FlowInput input{sta_cfg, d.clock_period, d.die, d.pi_toggles};
    FlowResult fr = run_placement_flow(work, input, cfg);
    double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (r == 0 || sec < best.seconds) {
      best.seconds = sec;
      best.pin_updates = fr.sta_stats.pin_updates();
      best.tns = fr.final_summary.tns;
    }
  }
  return best;
}

struct EditCost {
  double sec_full = 0.0;
  double sec_inc = 0.0;
  std::uint64_t pins_full = 0;
  std::uint64_t pins_inc = 0;
};

// Mutation-level comparison: repeated single-cell resizes, re-analyzed after
// each edit — the access pattern of every greedy optimization loop.
EditCost measure_single_edits(const Design& d) {
  const int kEdits = 200;
  EditCost cost;
  std::uint64_t& pins_full = cost.pins_full;
  std::uint64_t& pins_inc = cost.pins_inc;
  double& sec_full = cost.sec_full;
  double& sec_inc = cost.sec_inc;

  for (int mode = 0; mode < 2; ++mode) {
    bool incremental = (mode == 1);
    Netlist work = *d.netlist;
    StaConfig cfg = d.sta_config;
    cfg.incremental = incremental;
    Sta sta(&work, cfg, d.clock_period);
    sta.run();
    sta.reset_stats();
    const Library& lib = work.library();

    std::vector<CellId> cells;
    for (const Cell& c : work.cells()) {
      if (!work.is_port(c.id)) cells.push_back(c.id);
    }
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kEdits; ++i) {
      CellId c = cells[static_cast<std::size_t>(i * 37) % cells.size()];
      LibCellId up = lib.upsize(work.cell(c).lib);
      LibCellId dn = lib.downsize(work.cell(c).lib);
      LibCellId next = up.valid() ? up : dn;
      if (!next.valid()) continue;
      work.resize_cell(c, next);
      sta.update();
    }
    double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (incremental) {
      sec_inc = sec;
      pins_inc = sta.stats().pin_updates();
    } else {
      sec_full = sec;
      pins_full = sta.stats().pin_updates();
    }
  }

  std::printf("single-edit loop (%d resizes, %zu pins each full pass):\n",
              kEdits, d.netlist->num_pins());
  std::printf("  full      : %8.3f ms, %12llu pin updates\n", 1e3 * sec_full,
              static_cast<unsigned long long>(pins_full));
  std::printf("  increment : %8.3f ms, %12llu pin updates\n", 1e3 * sec_inc,
              static_cast<unsigned long long>(pins_inc));
  std::printf("  speedup %.2fx, pin-update reduction %.2fx\n\n",
              sec_full / sec_inc,
              static_cast<double>(pins_full) / static_cast<double>(pins_inc));
  return cost;
}

}  // namespace
}  // namespace rlccd

int main(int argc, char** argv) {
  using namespace rlccd;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  GeneratorConfig gcfg;
  gcfg.name = "micro2000";
  gcfg.target_cells = 2000;
  gcfg.seed = 5;
  gcfg.clock_tightness = 0.75;
  Design d = generate_design(gcfg);

  std::printf("== incremental STA vs full recompute ==\n");
  std::printf("design: %zu cells, %zu pins, period %.3f ns\n\n",
              d.netlist->num_real_cells(), d.netlist->num_pins(),
              d.clock_period);

  EditCost edits = measure_single_edits(d);

  const int kRepeats = 3;
  FlowCost full = measure_flow(d, /*incremental=*/false, kRepeats);
  FlowCost inc = measure_flow(d, /*incremental=*/true, kRepeats);

  std::printf("run_placement_flow (best of %d):\n", kRepeats);
  std::printf("  full      : %8.3f ms, %12llu pin updates, TNS %.4f\n",
              1e3 * full.seconds,
              static_cast<unsigned long long>(full.pin_updates), full.tns);
  std::printf("  increment : %8.3f ms, %12llu pin updates, TNS %.4f\n",
              1e3 * inc.seconds,
              static_cast<unsigned long long>(inc.pin_updates), inc.tns);
  std::printf("  speedup %.2fx, pin-update reduction %.2fx\n",
              full.seconds / inc.seconds,
              static_cast<double>(full.pin_updates) /
                  static_cast<double>(inc.pin_updates));

  // Bench document for rlccd_report: the pin-update reductions are checked
  // against the committed baseline in CI; the speedups and absolute times
  // are informational.
  if (!json_path.empty()) {
    const std::pair<const char*, double> metrics[] = {
        {"single_edit_full_ms", 1e3 * edits.sec_full},
        {"single_edit_inc_ms", 1e3 * edits.sec_inc},
        {"single_edit_speedup", edits.sec_full / edits.sec_inc},
        {"single_edit_pin_reduction",
         static_cast<double>(edits.pins_full) /
             static_cast<double>(edits.pins_inc)},
        {"flow_full_ms", 1e3 * full.seconds},
        {"flow_inc_ms", 1e3 * inc.seconds},
        {"flow_speedup", full.seconds / inc.seconds},
        {"flow_pin_reduction", static_cast<double>(full.pin_updates) /
                                   static_cast<double>(inc.pin_updates)},
    };
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"bench\":\"incremental\",\"metrics\":{");
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::fprintf(f, "%s\"%s\":%.6f", first ? "" : ",", name, value);
      first = false;
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
