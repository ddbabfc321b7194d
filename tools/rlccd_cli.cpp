// rlccd_cli — command-line driver for the library.
//
//   rlccd_cli generate <block|cells> [--scale S] [--seed N] [--out FILE]
//   rlccd_cli sta      <block> [--scale S]          # timing report
//   rlccd_cli flow     <block> [--scale S]          # default placement flow
//   rlccd_cli train    <block> [--scale S] [--iters N] [--workers N]
//                      [--rho R] [--gnn-in FILE] [--gnn-out FILE]
//
// The twelve shared flags (tools/common_args.h) ride along: flight-recorder
// artifacts (--metrics-json / --metrics-csv / --trace-json / --audit-jsonl /
// --progress), fault tolerance (--checkpoint-dir / --resume /
// --rollout-deadline / --isolate-workers / --max-worker-restarts) and the
// rollout memoization budget (--flow-cache-mb). `rlccd_cli --help` prints
// the whole table. Feed the artifacts to rlccd_report.
//
// Blocks are the paper's Table-II names (block1..block19); a plain number
// generates an anonymous design with that many cells.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/progress.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "netlist/serialize.h"
#include "netlist/stats.h"
#include "rl/audit.h"
#include "sta/path.h"
#include "tools/common_args.h"

using namespace rlccd;

namespace {

struct Args {
  std::string command;
  std::string target;
  double scale = 0.01;
  std::uint64_t seed = 1;
  int iters = 8;
  int workers = 6;
  double rho = 0.3;
  std::string out;
  std::string gnn_in;
  std::string gnn_out;
  tools::CommonArgs common;
  long cells = 0;  // > 0 when `target` is a cell count, not a block name
};

StderrProgress g_progress;

// Decision-provenance writer for `train`; opened in main when
// --audit-jsonl is set.
std::unique_ptr<JsonlAuditWriter> g_audit;

Design make_design(const Args& args) {
  if (args.cells > 0) {
    GeneratorConfig cfg;
    cfg.name = "cli";
    cfg.target_cells = static_cast<std::size_t>(args.cells);
    cfg.seed = args.seed;
    return generate_design(cfg);
  }
  GeneratorConfig cfg = to_generator_config(find_block(args.target),
                                            args.scale);
  if (args.seed != 1) cfg.seed = args.seed;
  return generate_design(cfg);
}

int cmd_generate(const Args& args) {
  Design d = make_design(args);
  std::printf("%s: %s\n", d.name.c_str(),
              stats_to_string(compute_stats(*d.netlist)).c_str());
  std::printf("period %.3f ns, die %.0f x %.0f um\n", d.clock_period,
              d.die.width, d.die.height);
  if (!args.out.empty()) {
    Status s = write_netlist_file(*d.netlist, args.out);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write netlist: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("netlist written to %s\n", args.out.c_str());
  }
  return 0;
}

int cmd_sta(const Args& args) {
  Design d = make_design(args);
  Sta sta = d.make_sta();
  sta.run();
  TimingSummary s = sta.summary();
  std::printf("%s @ %.3f ns: WNS %.3f  TNS %.2f  NVE %zu/%zu\n",
              d.name.c_str(), d.clock_period, s.wns, s.tns, s.nve,
              s.num_endpoints);
  TimingPath worst = extract_worst_path(sta);
  if (worst.endpoint.valid()) {
    std::fputs(path_to_string(*d.netlist, worst).c_str(), stdout);
  }
  return 0;
}

int cmd_flow(const Args& args) {
  Design d = make_design(args);
  Netlist work = *d.netlist;
  FlowConfig cfg =
      default_flow_config(work.num_real_cells(), d.clock_period);
  if (args.common.progress) cfg.observer = &g_progress;
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles};
  const double power_begin = compute_power(*d.netlist, d.activity).total();
  FlowResult r = run_placement_flow(work, input, cfg);
  std::printf("begin : WNS %.3f  TNS %.2f  NVE %zu  power %.2f mW\n",
              r.begin.wns, r.begin.tns, r.begin.nve, power_begin);
  std::printf("final : WNS %.3f  TNS %.2f  NVE %zu  power %.2f mW\n",
              r.final_summary.wns, r.final_summary.tns, r.final_summary.nve,
              r.power_final.total());
  std::printf("moves : %d upsized, %d downsized, %d buffers, %d swaps "
              "(%.2f s)\n",
              r.cells_upsized, r.cells_downsized, r.buffers_inserted,
              r.pins_swapped, r.runtime_sec());
  return 0;
}

int cmd_train(const Args& args) {
  Design d = make_design(args);
  RlCcdConfig cfg = RlCcdConfig::for_design(d);
  cfg.train.max_iterations = args.iters;
  cfg.train.workers = args.workers;
  cfg.train.overlap_threshold = args.rho;
  tools::apply_train_args(args.common, cfg.train);
  if (args.common.progress) cfg.observer = &g_progress;
  if (g_audit != nullptr) cfg.audit = g_audit.get();
  RlCcd agent(&d, cfg);
  if (!args.gnn_in.empty()) {
    Status s = agent.policy().load_gnn(args.gnn_in);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot load EP-GNN weights: %s\n",
                   s.to_string().c_str());
      return 1;
    }
  }
  RlCcdResult r = agent.run();
  std::printf("default: TNS %.3f  NVE %zu\n", r.default_flow.final_summary.tns,
              r.default_flow.final_summary.nve);
  std::printf("RL-CCD : TNS %.3f  NVE %zu  (|sel| %zu, %.1f%% TNS gain, "
              "%.1f%% NVE gain, runtime x%.0f)\n",
              r.rl_flow.final_summary.tns, r.rl_flow.final_summary.nve, r.selection.size(),
              r.tns_gain_pct(), r.nve_gain_pct(), r.runtime_factor);
  if (!args.gnn_out.empty()) {
    Status s = agent.save_gnn(args.gnn_out);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write EP-GNN weights: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("EP-GNN weights written to %s\n", args.gnn_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  Args args;
  std::vector<tools::Arg> table = {
      {"<command>", nullptr, "generate, sta, flow or train", &args.command,
       {},
       [](const std::string& c) {
         return c == "generate" || c == "sta" || c == "flow" || c == "train";
       }},
      {"<block|cells>", nullptr,
       "Table II block name, or a cell count (at least 16)", &args.target},
      {"--scale", "S", "share of the block's paper cell count, in (0, 1]",
       &args.scale, tools::kScale},
      {"--seed", "N", "design seed (1 keeps the block's own)", &args.seed},
      {"--iters", "N", "train: REINFORCE iterations", &args.iters,
       tools::kCount},
      {"--workers", "N", "train: rollout workers", &args.workers,
       tools::kAtLeastOne},
      {"--rho", "R", "train: mask overlap threshold, in [0, 1]", &args.rho,
       tools::kUnit},
      {"--out", "FILE", "generate: write the netlist here", &args.out},
      {"--gnn-in", "FILE", "train: start from these EP-GNN weights",
       &args.gnn_in},
      {"--gnn-out", "FILE", "train: save the trained EP-GNN weights here",
       &args.gnn_out},
  };
  tools::add_common_flags(table, args.common);
  if (auto rc = tools::parse_args(argc, argv, table)) return *rc;
  // A target that names no block is a cell count, which generate_design()
  // needs to be at least 16.
  if (!block_known(args.target) &&
      !tools::parse_value({"<block|cells>", nullptr, "", &args.cells, {16.0}},
                          args.target)) {
    return 2;
  }
  if (!tools::open_common_artifacts(args.common, g_audit)) return 1;
  const int rc = args.command == "generate" ? cmd_generate(args)
                 : args.command == "sta"    ? cmd_sta(args)
                 : args.command == "flow"   ? cmd_flow(args)
                                            : cmd_train(args);
  if (!tools::write_common_artifacts(args.common, g_audit.get())) return 1;
  return rc;
}
