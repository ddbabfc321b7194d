#include "core/rlccd.h"

#include <algorithm>
#include <chrono>

#include "common/telemetry.h"

namespace rlccd {

RlCcdConfig RlCcdConfig::for_design(const Design& design) {
  RlCcdConfig cfg;
  cfg.train.flow = default_flow_config(design.netlist->num_real_cells(),
                                       design.clock_period);
  return cfg;
}

RlCcd::RlCcd(const Design* design, RlCcdConfig config)
    : design_(design),
      config_(std::move(config)),
      policy_(config_.policy, config_.policy_seed) {
  RLCCD_EXPECTS(design != nullptr);
}

namespace {

FlowAuditRecord to_flow_record(const char* label, const FlowResult& flow) {
  FlowAuditRecord rec;
  rec.label = label;
  rec.wns = flow.final_summary.wns;
  rec.tns = flow.final_summary.tns;
  rec.nve = flow.final_summary.nve;
  rec.outcomes.reserve(flow.prioritized_outcomes.size());
  for (const EndpointOutcome& o : flow.prioritized_outcomes) {
    rec.outcomes.push_back({o.pin.value, o.begin_slack, o.final_slack});
  }
  return rec;
}

}  // namespace

RlCcdResult RlCcd::run() {
  RLCCD_SPAN("rlccd");
  RlCcdResult result;
  TrainConfig train_config = config_.train;
  if (train_config.observer == nullptr) {
    train_config.observer = config_.observer;
  }
  if (train_config.audit == nullptr) {
    train_config.audit = config_.audit;
  }
  ReinforceTrainer trainer(design_, &policy_, train_config);
  const auto t_train = std::chrono::steady_clock::now();
  result.train = trainer.train();
  result.train_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_train)
                             .count();
  result.selection = result.train.best_selection;
  {
    RLCCD_SPAN("final_flows");
    result.default_flow = trainer.evaluate_selection({});
    result.rl_flow = trainer.evaluate_selection(result.selection);
  }
  if (train_config.audit != nullptr) {
    train_config.audit->on_flow(to_flow_record("default", result.default_flow));
    train_config.audit->on_flow(to_flow_record("rl", result.rl_flow));
  }
  double default_cost = std::max(1e-9, result.default_flow.runtime_sec());
  result.runtime_factor =
      (result.train_seconds + result.rl_flow.runtime_sec()) /
      default_cost;
  return result;
}

}  // namespace rlccd
