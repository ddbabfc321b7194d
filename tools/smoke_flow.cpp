// Developer smoke test: generates a block, runs the default flow and two
// naive prioritization strategies, prints summaries. Not installed; used to
// calibrate the substrate while developing.
//
//   smoke_flow [flags] [block] [scale] [trials]
//
// --metrics-json / --metrics-csv write the process-wide telemetry registry
// (counters, histograms, nested per-pass span trees) after all runs;
// --trace-json records a Chrome-trace timeline of every span; --progress
// streams per-pass events to stderr.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/progress.h"
#include "common/rng.h"
#include "designgen/blocks.h"
#include "designgen/generator.h"
#include "opt/flow.h"
#include "tools/common_args.h"

using namespace rlccd;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Info);
  std::string block_name = "block11";
  double scale = 0.01;
  int trials = 0;
  tools::CommonArgs args;
  std::vector<tools::Arg> table = {
      {"[block]", nullptr, "Table II block name, block1..block19",
       &block_name, {}, block_known},
      {"[scale]", nullptr, "share of the paper's cell count, in (0, 1]",
       &scale, tools::kScale},
      {"[trials]", nullptr, "random selections tried after the fixed ones",
       &trials, tools::kCount},
  };
  tools::add_common_flags(
      table, args,
      {"--metrics-json", "--metrics-csv", "--trace-json", "--progress"});
  if (auto rc = tools::parse_args(argc, argv, table)) return *rc;
  std::unique_ptr<JsonlAuditWriter> no_audit;  // smoke_flow trains nothing
  if (!tools::open_common_artifacts(args, no_audit)) return 1;

  Design design = generate_design(
      to_generator_config(find_block(block_name), scale));
  Netlist& nl = *design.netlist;
  std::printf("design %s: %zu cells, period %.3f ns, die %.0f um\n",
              design.name.c_str(), nl.num_real_cells(), design.clock_period,
              design.die.width);

  Sta sta0 = design.make_sta();
  sta0.run();
  TimingSummary begin = sta0.summary();
  std::printf("begin: WNS %.3f TNS %.2f NVE %zu / %zu endpoints\n",
              begin.wns, begin.tns, begin.nve, begin.num_endpoints);
  const double power_begin = compute_power(nl, design.activity).total();

  StderrProgress progress_observer("  ");
  FlowConfig cfg = default_flow_config(nl.num_real_cells(),
                                       design.clock_period);
  if (args.progress) cfg.observer = &progress_observer;
  auto run_with = [&](const char* tag, std::span<const PinId> prio) {
    Netlist work = nl;  // pristine copy per run
    FlowInput input{design.sta_config, design.clock_period, design.die,
                    design.pi_toggles, prio};
    FlowResult r = run_placement_flow(work, input, cfg);
    std::printf(
        "%-12s final WNS %.3f TNS %8.2f NVE %4zu | after_skew TNS %8.2f | "
        "power %.2f->%.2f mW | up %d dn %d buf %d swap %d | %.2fs\n",
        tag, r.final_summary.wns, r.final_summary.tns, r.final_summary.nve,
        r.after_skew.tns, power_begin, r.power_final.total(),
        r.cells_upsized, r.cells_downsized, r.buffers_inserted,
        r.pins_swapped, r.runtime_sec());
    return r;
  };

  run_with("default", {});

  // Worst-slack-k prioritization.
  std::vector<PinId> vio = sta0.endpoint_violations();
  std::sort(vio.begin(), vio.end(), [&](PinId a, PinId b) {
    return sta0.endpoint_slack(a) < sta0.endpoint_slack(b);
  });
  std::vector<PinId> worst(vio.begin(),
                           vio.begin() + std::min<std::size_t>(vio.size(),
                                                               vio.size() / 3));
  run_with("worst-k", worst);

  // Random-k prioritization.
  Rng rng(7);
  std::vector<PinId> shuffled = vio;
  rng.shuffle(shuffled);
  std::vector<PinId> randk(
      shuffled.begin(),
      shuffled.begin() + std::min<std::size_t>(shuffled.size(),
                                               shuffled.size() / 3));
  run_with("random-k", randk);

  // All violating endpoints.
  run_with("all-vio", vio);

  // Random search: does a good selection exist at all?
  double best_tns = -1e30;
  std::vector<PinId> best_sel;
  for (int i = 0; i < trials; ++i) {
    std::vector<PinId> sel;
    double keep = rng.uniform(0.05, 0.6);
    for (PinId ep : vio) {
      if (rng.uniform() < keep) sel.push_back(ep);
    }
    Netlist work = nl;
    FlowInput input{design.sta_config, design.clock_period, design.die,
                    design.pi_toggles, sel};
    FlowResult r = run_placement_flow(work, input, cfg);
    if (r.final_summary.tns > best_tns) {
      best_tns = r.final_summary.tns;
      best_sel = sel;
      std::printf("  trial %3d: TNS %8.3f (|sel|=%zu) <-- new best\n", i,
                  r.final_summary.tns, sel.size());
    }
  }

  return tools::write_common_artifacts(args, nullptr) ? 0 : 1;
}
