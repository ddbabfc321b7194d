// RL-CCD public facade: end-to-end endpoint prioritization on a placed
// design (the paper's full right-hand flow of Fig. 1).
//
//   Design design = generate_design(...);          // or a block spec
//   RlCcd rlccd(&design, RlCcdConfig::for_design(design));
//   RlCcdResult r = rlccd.run();
//   // r.default_flow = native tool flow, r.rl_flow = RL-CCD enhanced flow
//
// Transfer learning (paper Sec. IV-B): save_gnn() on one design, then
// policy().load_gnn(path) on another before run(), reuses the EP-GNN
// weights; the encoder-decoder is re-initialized per design.
#pragma once

#include <cmath>
#include <string>

#include "designgen/generator.h"
#include "rl/trainer.h"

namespace rlccd {

struct RlCcdConfig {
  PolicyConfig policy;
  TrainConfig train;
  std::uint64_t policy_seed = 42;
  // Convenience: propagated to train.observer when that is unset, so facade
  // users get per-iteration progress without reaching into TrainConfig.
  ProgressObserver* observer = nullptr;
  // Same propagation for decision provenance (train.audit). The facade
  // additionally emits one FlowAuditRecord per final comparison flow
  // ("default" and "rl") with per-endpoint begin/final slacks.
  AuditSink* audit = nullptr;

  // Sensible defaults (flow budgets, skew bounds) scaled for `design`.
  static RlCcdConfig for_design(const Design& design);
};

struct RlCcdResult {
  TrainStats train;
  FlowResult default_flow;  // native flow, empty selection
  FlowResult rl_flow;       // flow with the best RL selection
  std::vector<PinId> selection;
  // Wall-clock of training, final greedy decode included.
  double train_seconds = 0.0;
  // Wall-clock of RL-CCD (training + final flow) over one default flow run,
  // mirroring Table II's normalized runtime column.
  double runtime_factor = 0.0;

  [[nodiscard]] double tns_gain_pct() const {
    double d = std::abs(default_flow.final_summary.tns);
    if (d < 1e-12) return 0.0;
    return 100.0 *
           (rl_flow.final_summary.tns - default_flow.final_summary.tns) / d;
  }
  [[nodiscard]] double nve_gain_pct() const {
    if (default_flow.final_summary.nve == 0) return 0.0;
    return 100.0 *
           (static_cast<double>(default_flow.final_summary.nve) -
            static_cast<double>(rl_flow.final_summary.nve)) /
           static_cast<double>(default_flow.final_summary.nve);
  }
};

class RlCcd {
 public:
  RlCcd(const Design* design, RlCcdConfig config);

  // Trains the agent and runs the final comparison flows.
  RlCcdResult run();

  [[nodiscard]] Policy& policy() { return policy_; }
  Status save_gnn(const std::string& path) const {
    return policy_.save_gnn(path);
  }

 private:
  const Design* design_;
  RlCcdConfig config_;
  Policy policy_;
};

}  // namespace rlccd
