// Transfer learning (paper Sec. IV-B): pre-train EP-GNN on same-technology
// donor blocks, then fine-tune on an unseen block with a fresh
// encoder/decoder, and compare convergence against training from scratch.
//
//   ./examples/transfer_learning [target_block] [scale]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.h"
#include "common/table.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"

using namespace rlccd;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  std::string target = argc > 1 ? argv[1] : "block19";
  double scale = argc > 2 ? std::atof(argv[2]) : 0.005;

  const BlockSpec& target_spec = find_block(target);
  std::string gnn_path = "/tmp/rlccd_pretrained_gnn.bin";

  // 1. Pre-train on a same-technology donor block.
  std::string donor;
  for (const BlockSpec& b : paper_blocks()) {
    if (b.tech == target_spec.tech && b.name != target) {
      donor = b.name;
      break;
    }
  }
  std::printf("pre-training EP-GNN on %s (%s), transferring to %s\n\n",
              donor.c_str(), tech_node_name(target_spec.tech),
              target.c_str());
  {
    Design d = generate_design(to_generator_config(find_block(donor), scale));
    RlCcdConfig cfg = RlCcdConfig::for_design(d);
    cfg.train.workers = 4;
    cfg.train.max_iterations = 8;
    RlCcd agent(&d, cfg);
    agent.run();
    Status s = agent.save_gnn(gnn_path);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot save EP-GNN: %s\n", s.to_string().c_str());
      return 1;
    }
  }

  // 2. Train on the target: scratch vs pre-trained EP-GNN.
  Design d = generate_design(to_generator_config(target_spec, scale));
  auto train = [&](const std::string& pretrained) {
    RlCcdConfig cfg = RlCcdConfig::for_design(d);
    cfg.train.workers = 4;
    cfg.train.max_iterations = 10;
    cfg.train.patience = 10;  // run to the iteration cap for a full curve
    cfg.policy_seed = 99;
    RlCcd agent(&d, cfg);
    if (!pretrained.empty()) {
      Status s = agent.policy().load_gnn(pretrained);
      if (!s.ok()) {
        std::fprintf(stderr, "cannot load EP-GNN: %s\n",
                     s.to_string().c_str());
        std::exit(1);
      }
    }
    return agent.run();
  };
  RlCcdResult scratch = train("");
  RlCcdResult transfer = train(gnn_path);

  TablePrinter t({"iter", "scratch best TNS", "transfer best TNS"});
  std::size_t n = std::max(scratch.train.history.size(),
                           transfer.train.history.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto cell = [&](const RlCcdResult& r) {
      if (i < r.train.history.size()) {
        return TablePrinter::fmt(r.train.history[i].best_tns, 3);
      }
      return std::string("-");
    };
    t.add_row({std::to_string(i), cell(scratch), cell(transfer)});
  }
  t.print();

  // First iteration at which each run reaches within 5% of its final best.
  auto convergence_iter = [](const RlCcdResult& r) {
    double goal = r.train.best_tns - 0.05 * std::abs(r.train.best_tns);
    for (std::size_t i = 0; i < r.train.history.size(); ++i) {
      if (r.train.history[i].best_tns >= goal) return i;
    }
    return r.train.history.size();
  };
  std::printf("\nscratch : best TNS %.3f, ~converged at iter %zu\n",
              scratch.train.best_tns, convergence_iter(scratch));
  std::printf("transfer: best TNS %.3f, ~converged at iter %zu\n",
              transfer.train.best_tns, convergence_iter(transfer));
  std::remove(gnn_path.c_str());
  return 0;
}
