#include "rl/audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/temp_path.h"
#include "rl/env.h"
#include "rl/policy.h"
#include "rl/trainer.h"

namespace rlccd {
namespace {

constexpr double kRho = 0.3;

struct Fixture {
  Design design;
  DesignGraph graph;

  Fixture() : design(make()), graph(design) {}

  static Design make() {
    GeneratorConfig cfg;
    cfg.target_cells = 400;
    cfg.seed = 81;
    cfg.clock_tightness = 0.75;
    return generate_design(cfg);
  }
};

// Buffers every record as serialized JSONL, exactly what JsonlAuditWriter
// would stream, so tests can compare runs without touching the filesystem.
class StringAuditSink : public AuditSink {
 public:
  void on_rollout(const RolloutAuditRecord& r) override {
    lines += r.to_json();
    lines += '\n';
    ++rollouts;
  }
  void on_iteration(const IterationAuditRecord& r) override {
    lines += r.to_json();
    lines += '\n';
    iterations.push_back(r);
  }
  void on_flow(const FlowAuditRecord& r) override {
    lines += r.to_json();
    lines += '\n';
  }
  std::string lines;
  int rollouts = 0;
  std::vector<IterationAuditRecord> iterations;
};

// -- env mask provenance ------------------------------------------------------

TEST(AuditMask, EveryMaskEventCarriesTheOverlapThatExceededRho) {
  Fixture f;
  SelectionEnv env(&f.graph, kRho);
  std::size_t step_index = 0;
  while (!env.done()) {
    // Pick the first valid endpoint (deterministic, policy-free).
    std::size_t action = 0;
    while (env.valid()[action] == 0) ++action;
    std::vector<AuditMaskEvent> masked;
    const int num_masked = env.step(action, &masked);
    ASSERT_EQ(masked.size(), static_cast<std::size_t>(num_masked))
        << "one event per endpoint masked at step " << step_index;
    for (const AuditMaskEvent& m : masked) {
      EXPECT_GT(m.overlap, kRho)
          << "endpoint " << m.endpoint << " was masked below threshold";
      EXPECT_LE(m.overlap, 1.0);
      // The recorded ratio is the cone index's, verbatim.
      EXPECT_DOUBLE_EQ(m.overlap, f.graph.cones().overlap(action, m.endpoint));
    }
    ++step_index;
  }
  ASSERT_GE(step_index, 1u);
}

TEST(AuditMask, SideChannelDoesNotChangeTheEpisode) {
  Fixture f;
  SelectionEnv audited(&f.graph, kRho);
  SelectionEnv plain(&f.graph, kRho);
  std::vector<AuditMaskEvent> masked;
  while (!audited.done()) {
    std::size_t action = 0;
    while (audited.valid()[action] == 0) ++action;
    masked.clear();
    EXPECT_EQ(audited.step(action, &masked), plain.step(action));
    EXPECT_EQ(audited.valid(), plain.valid());
  }
  EXPECT_TRUE(plain.done());
  EXPECT_EQ(audited.selected(), plain.selected());
}

// -- rollout capture ----------------------------------------------------------

TEST(AuditRollout, CaptureIsReadOnlyAndCoversEveryStep) {
  Fixture f;
  Policy with_audit(PolicyConfig{}, 3);
  Policy without(PolicyConfig{}, 3);
  SelectionEnv e1(&f.graph, kRho), e2(&f.graph, kRho);
  Rng r1(9), r2(9);

  SelectionAudit audit;
  Policy::RolloutResult a = with_audit.rollout(f.graph, e1, r1, false,
                                               Policy::RolloutMode::Inference,
                                               &audit);
  Policy::RolloutResult b = without.rollout(f.graph, e2, r2, false,
                                            Policy::RolloutMode::Inference);
  EXPECT_EQ(a.actions, b.actions)
      << "auditing must not consume RNG or change the trajectory";

  ASSERT_EQ(audit.steps.size(), a.actions.size());
  EXPECT_FALSE(audit.poisoned);
  const std::vector<double> slacks = f.graph.endpoint_slacks();
  for (std::size_t i = 0; i < audit.steps.size(); ++i) {
    const AuditStep& s = audit.steps[i];
    EXPECT_EQ(s.chosen, static_cast<std::uint32_t>(a.actions[i]));
    EXPECT_DOUBLE_EQ(s.slack, slacks[s.chosen]);
    EXPECT_LE(s.log_prob, 0.0);
    EXPECT_GE(s.entropy, 0.0);
    ASSERT_GE(s.top_probs.size(), 1u);
    ASSERT_LE(s.top_probs.size(), SelectionAudit::kTopK);
    for (std::size_t k = 1; k < s.top_probs.size(); ++k) {
      EXPECT_GE(s.top_probs[k - 1].second, s.top_probs[k].second)
          << "top-k probabilities must be sorted descending";
    }
  }
  EXPECT_GE(audit.mean_entropy(), 0.0);
}

// -- trainer provenance stream ------------------------------------------------

Design small_design(std::uint64_t seed = 91) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = seed;
  cfg.clock_tightness = 0.72;
  return generate_design(cfg);
}

TrainConfig fast_config(const Design& d) {
  TrainConfig cfg;
  cfg.workers = 2;
  cfg.max_iterations = 3;
  cfg.min_iterations = 1;
  cfg.patience = 3;
  cfg.flow = default_flow_config(d.netlist->num_real_cells(),
                                 d.clock_period);
  return cfg;
}

TEST(AuditTrainer, StreamsRolloutsAndIterations) {
  Design d = small_design();
  Policy policy(PolicyConfig{}, 1);
  StringAuditSink sink;
  TrainConfig cfg = fast_config(d);
  cfg.audit = &sink;
  ReinforceTrainer trainer(&d, &policy, cfg);
  TrainStats stats = trainer.train();

  // One rollout record per worker per iteration plus the greedy decode.
  EXPECT_EQ(sink.rollouts, stats.iterations * cfg.workers + 1);
  ASSERT_EQ(sink.iterations.size(),
            static_cast<std::size_t>(stats.iterations));
  for (std::size_t i = 0; i < sink.iterations.size(); ++i) {
    const IterationAuditRecord& r = sink.iterations[i];
    const IterationStats& h = stats.history[i];
    EXPECT_EQ(r.iteration, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(r.mean_reward, h.mean_reward);
    EXPECT_DOUBLE_EQ(r.best_tns, h.best_tns);
    EXPECT_DOUBLE_EQ(r.mean_entropy, h.mean_entropy);
    EXPECT_DOUBLE_EQ(r.grad_norm, h.grad_norm);
    EXPECT_GE(r.mean_entropy, 0.0);
    EXPECT_TRUE(std::isfinite(r.grad_norm));
  }
}

TEST(AuditTrainer, ProvenanceFieldsPopulatedWithoutSink) {
  // The trainer always collects provenance; IterationStats carries the
  // aggregates even when no sink is attached.
  Design d = small_design(93);
  Policy policy(PolicyConfig{}, 2);
  ReinforceTrainer trainer(&d, &policy, fast_config(d));
  TrainStats stats = trainer.train();
  ASSERT_GE(stats.history.size(), 1u);
  for (const IterationStats& h : stats.history) {
    EXPECT_GT(h.mean_entropy, 0.0)
        << "a sampled softmax over many endpoints has positive entropy";
    EXPECT_TRUE(std::isfinite(h.grad_norm));
  }
}

// The golden property the flight recorder promises: a deterministic seeded
// run produces a byte-identical audit stream.
TEST(AuditTrainer, GoldenStreamIsByteStableAcrossRuns) {
  Design d = small_design(97);
  auto run_once = [&]() {
    Policy policy(PolicyConfig{}, 4);
    StringAuditSink sink;
    TrainConfig cfg = fast_config(d);
    cfg.audit = &sink;
    ReinforceTrainer trainer(&d, &policy, cfg);
    trainer.train();
    return sink.lines;
  };
  const std::string a = run_once();
  const std::string b = run_once();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "audit JSONL must be bit-stable for a fixed seed";
}

// -- JSONL writer -------------------------------------------------------------

TEST(JsonlWriter, WritesSelfDescribingLines) {
  const std::string path = testing::temp_path("audit_writer_test.jsonl");
  std::unique_ptr<JsonlAuditWriter> writer;
  ASSERT_TRUE(JsonlAuditWriter::open(path, writer).ok());

  SelectionAudit audit;
  AuditStep step;
  step.chosen = 7;
  step.slack = -0.25;
  step.log_prob = -1.5;
  step.entropy = 0.75;
  step.top_probs = {{7, 0.5}, {3, 0.25}};
  step.masked = {{3, 0.45}};
  audit.steps.push_back(step);

  RolloutAuditRecord rollout;
  rollout.iteration = 0;
  rollout.worker = 1;
  rollout.tns = -12.5;
  rollout.reward = 0.125;
  rollout.flow_ran = true;
  rollout.audit = &audit;
  writer->on_rollout(rollout);

  IterationAuditRecord iter;
  iter.iteration = 0;
  iter.survivors = 2;
  writer->on_iteration(iter);

  FlowAuditRecord flow;
  flow.label = "rl";
  flow.tns = -10.0;
  flow.outcomes.push_back({42, -0.5, -0.1});
  writer->on_flow(flow);
  ASSERT_TRUE(writer->close().ok());

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> types;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const std::size_t pos = line.find("\"type\":\"");
    ASSERT_NE(pos, std::string::npos) << line;
    types.push_back(line.substr(pos + 8, line.find('"', pos + 8) - pos - 8));
  }
  EXPECT_EQ(types,
            (std::vector<std::string>{"rollout", "iteration", "flow"}));
  std::remove(path.c_str());
}

TEST(JsonlWriter, OpenFailsOnUnwritablePath) {
  std::unique_ptr<JsonlAuditWriter> writer;
  Status s = JsonlAuditWriter::open("/nonexistent_dir/audit.jsonl", writer);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(writer, nullptr);
}

}  // namespace
}  // namespace rlccd
