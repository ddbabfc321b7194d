// Figure 6 reproduction: transfer learning on block19.
//
// The paper pre-trains EP-GNN on same-technology designs and shows that a
// fresh encoder/decoder with the pre-trained EP-GNN converges to comparable
// TNS in far fewer iterations than training everything from scratch. We
// pre-train on the other N5 blocks (block1/13 at the bench tier), transfer
// to block19, and print both best-TNS-so-far convergence series.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/table.h"

using namespace rlccd;
using namespace rlccd::bench;

int main() {
  set_log_level(LogLevel::Warn);
  print_header("Figure 6: transfer learning on block19 (pre-trained EP-GNN)");
  BenchTier t = tier();

  const std::string gnn_path = "/tmp/rlccd_fig6_gnn.bin";
  // block19 is the largest block (922K cells in the paper); the two full
  // convergence curves run at 0.7x the tier scale to keep this bench's
  // wall-clock in line with the others.
  const double scale = 0.7 * t.scale;

  // Pre-train the EP-GNN on a same-technology donor (block19 is N5).
  for (const char* donor : {"block13"}) {
    const BlockSpec& spec = find_block(donor);
    Design d = generate_design(to_generator_config(spec, scale));
    RlCcdConfig cfg = agent_config(d, t, 7);
    RlCcd agent(&d, cfg);
    agent.run();
    Status s = agent.save_gnn(gnn_path);
    if (!s.ok()) {
      std::fprintf(stderr, "[fig6] cannot save EP-GNN: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "[fig6] pre-trained on %s\n", donor);
  }

  Design target = generate_design(
      to_generator_config(find_block("block19"), scale));
  auto train = [&](const std::string& pretrained) {
    RlCcdConfig cfg = agent_config(target, t, 99);
    cfg.train.patience = cfg.train.max_iterations;  // full curve
    RlCcd agent(&target, cfg);
    if (!pretrained.empty()) {
      Status s = agent.policy().load_gnn(pretrained);
      if (!s.ok()) {
        std::fprintf(stderr, "[fig6] cannot load EP-GNN: %s\n",
                     s.to_string().c_str());
        std::exit(1);
      }
    }
    return agent.run();
  };
  RlCcdResult scratch = train("");
  RlCcdResult transfer = train(gnn_path);

  TablePrinter table({"iteration", "scratch best TNS", "transfer best TNS"});
  std::size_t n = std::max(scratch.train.history.size(),
                           transfer.train.history.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto cell = [&](const RlCcdResult& r) -> std::string {
      if (i < r.train.history.size()) {
        return TablePrinter::fmt(r.train.history[i].best_tns, 3);
      }
      return "-";
    };
    table.add_row({std::to_string(i), cell(scratch), cell(transfer)});
  }
  table.print();

  auto iters_to_reach = [](const RlCcdResult& r, double goal) {
    for (std::size_t i = 0; i < r.train.history.size(); ++i) {
      if (r.train.history[i].best_tns >= goal) return i + 1;
    }
    return r.train.history.size() + 1;
  };
  // Iterations each variant needs to reach the scratch run's final quality.
  double goal = scratch.train.best_tns - 1e-9;
  std::printf("\ndefault flow TNS: %.3f\n", scratch.default_flow.final_summary.tns);
  std::printf("scratch : best TNS %.3f in %zu iterations\n",
              scratch.train.best_tns, scratch.train.history.size());
  std::printf("transfer: best TNS %.3f, reached scratch-final quality after "
              "%zu iterations (scratch needed %zu)\n",
              transfer.train.best_tns, iters_to_reach(transfer, goal),
              iters_to_reach(scratch, goal));
  std::remove(gnn_path.c_str());
  return 0;
}
