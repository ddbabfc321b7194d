// Bit-exact equivalences of the policy's multi-trajectory and replay entry
// points: rollout_batched vs independent rollout() calls on the same RNG
// streams (actions, log-probs, audits), and a teacher-forced stepwise
// replay vs the live stepwise rollout it replays (parameter gradients).
#include <gtest/gtest.h>

#include <vector>

#include "rl/audit.h"
#include "rl/trainer.h"

namespace rlccd {
namespace {

Design small_design(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = seed;
  cfg.clock_tightness = 0.72;
  return generate_design(cfg);
}

void expect_audit_equal(const SelectionAudit& a, const SelectionAudit& b) {
  EXPECT_EQ(a.poisoned, b.poisoned);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t t = 0; t < a.steps.size(); ++t) {
    const AuditStep& sa = a.steps[t];
    const AuditStep& sb = b.steps[t];
    EXPECT_EQ(sa.chosen, sb.chosen) << "step " << t;
    EXPECT_EQ(sa.slack, sb.slack) << "step " << t;
    EXPECT_EQ(sa.log_prob, sb.log_prob) << "step " << t;
    EXPECT_EQ(sa.entropy, sb.entropy) << "step " << t;
    EXPECT_EQ(sa.top_probs, sb.top_probs) << "step " << t;
    ASSERT_EQ(sa.masked.size(), sb.masked.size()) << "step " << t;
    for (std::size_t m = 0; m < sa.masked.size(); ++m) {
      EXPECT_EQ(sa.masked[m].endpoint, sb.masked[m].endpoint);
      EXPECT_EQ(sa.masked[m].overlap, sb.masked[m].overlap);
    }
  }
}

TEST(PolicyBatched, RolloutBatchedBitIdenticalToPerWorker) {
  Design d = small_design(81);
  DesignGraph graph(d);
  ASSERT_GT(graph.num_endpoints(), 0u);
  Policy policy(PolicyConfig{}, 6);
  constexpr int kWorkers = 4;
  Rng root(123);

  // Per-worker reference: independent rollouts with forked streams.
  std::vector<Policy::RolloutResult> ref;
  std::vector<SelectionAudit> ref_audits(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    SelectionEnv env(&graph, 0.3);
    Rng rng = root.fork(static_cast<std::uint64_t>(w));
    ref.push_back(policy.rollout(graph, env, rng, /*greedy=*/false,
                                 Policy::RolloutMode::Inference,
                                 &ref_audits[static_cast<std::size_t>(w)]));
  }

  // rollout_batched with the same forked streams (fork is pure).
  std::vector<SelectionEnv> envs;
  std::vector<Rng> rngs;
  std::vector<SelectionAudit> audits(kWorkers);
  std::vector<SelectionAudit*> audit_ptrs;
  for (int w = 0; w < kWorkers; ++w) {
    envs.emplace_back(&graph, 0.3);
    rngs.push_back(root.fork(static_cast<std::uint64_t>(w)));
    audit_ptrs.push_back(&audits[static_cast<std::size_t>(w)]);
  }
  std::vector<Policy::RolloutResult> got =
      policy.rollout_batched(graph, envs, rngs, audit_ptrs);

  ASSERT_EQ(got.size(), ref.size());
  bool lengths_differ = false;
  for (int w = 0; w < kWorkers; ++w) {
    const auto wi = static_cast<std::size_t>(w);
    EXPECT_EQ(got[wi].actions, ref[wi].actions) << "worker " << w;
    EXPECT_EQ(got[wi].selected, ref[wi].selected) << "worker " << w;
    EXPECT_EQ(got[wi].steps, ref[wi].steps) << "worker " << w;
    EXPECT_EQ(got[wi].log_prob_value, ref[wi].log_prob_value)
        << "worker " << w << ": log-prob sum must be bit-exact";
    EXPECT_FALSE(got[wi].poisoned);
    expect_audit_equal(audits[wi], ref_audits[wi]);
    if (got[wi].steps != got[0].steps) lengths_differ = true;
  }
  // The workers sample different trajectories, so at least some must
  // diverge in length — otherwise the streams were not independent.
  EXPECT_TRUE(lengths_differ || kWorkers == 1);
}

TEST(PolicyBatched, ForcedReplayReproducesStepwiseGradientsBitExact) {
  Design d = small_design(83);
  DesignGraph graph(d);
  Policy policy(PolicyConfig{}, 7);
  Policy live = policy.clone();
  Policy replayed = policy.clone();

  SelectionEnv live_env(&graph, 0.3);
  Rng live_rng(42);
  Policy::RolloutResult ro =
      live.rollout(graph, live_env, live_rng, /*greedy=*/false,
                   Policy::RolloutMode::StepwiseBackward);
  ASSERT_GE(ro.steps, 1);

  SelectionEnv replay_env(&graph, 0.3);
  Rng dummy(0);  // never drawn from in forced mode
  Policy::RolloutResult rep = replayed.rollout(
      graph, replay_env, dummy, /*greedy=*/false,
      Policy::RolloutMode::StepwiseBackward, /*audit=*/nullptr, &ro.actions);

  EXPECT_EQ(rep.actions, ro.actions);
  EXPECT_EQ(rep.steps, ro.steps);
  EXPECT_EQ(rep.log_prob_value, ro.log_prob_value);

  std::vector<Tensor> pa = live.parameters();
  std::vector<Tensor> pb = replayed.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    const std::vector<float> ga = pa[p].grad();
    const std::vector<float> gb = pb[p].grad();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i], gb[i]) << "param " << p << " grad element " << i;
    }
  }
}

}  // namespace
}  // namespace rlccd
