#include "rl/policy.h"

#include <gtest/gtest.h>

#include <cstring>

#include "helpers/temp_path.h"

namespace rlccd {
namespace {

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

TEST(Policy, RolloutSelectsUntilDone) {
  Fixture f;
  Policy policy(PolicyConfig{}, 1);
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(5);
  Policy::RolloutResult r = policy.rollout(f.graph, env, rng);
  EXPECT_TRUE(env.done());
  EXPECT_EQ(r.actions.size(), static_cast<std::size_t>(r.steps));
  EXPECT_EQ(r.selected.size(), r.actions.size());
  EXPECT_GE(r.steps, 1);
  // Log-probabilities of sampled actions are negative.
  EXPECT_LT(r.log_prob_value, 0.0);
  EXPECT_NEAR(r.log_prob_sum.item(), r.log_prob_value, 1e-4);
}

TEST(Policy, ActionsAreDistinctValidEndpoints) {
  Fixture f;
  Policy policy(PolicyConfig{}, 2);
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(7);
  Policy::RolloutResult r = policy.rollout(f.graph, env, rng);
  std::vector<std::size_t> sorted = r.actions;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "an endpoint was selected twice";
  for (std::size_t a : r.actions) EXPECT_LT(a, f.graph.num_endpoints());
}

TEST(Policy, DeterministicGivenSeedAndRng) {
  Fixture f;
  Policy p1(PolicyConfig{}, 3);
  Policy p2(PolicyConfig{}, 3);
  SelectionEnv e1(&f.graph, 0.3), e2(&f.graph, 0.3);
  Rng r1(9), r2(9);
  Policy::RolloutResult a = p1.rollout(f.graph, e1, r1);
  Policy::RolloutResult b = p2.rollout(f.graph, e2, r2);
  EXPECT_EQ(a.actions, b.actions);
}

TEST(Policy, GreedyIsDeterministicWithoutRngConsumption) {
  Fixture f;
  Policy policy(PolicyConfig{}, 4);
  SelectionEnv e1(&f.graph, 0.3), e2(&f.graph, 0.3);
  Rng r1(1), r2(999);  // different rngs must not matter in greedy mode
  Policy::RolloutResult a = policy.rollout(f.graph, e1, r1, /*greedy=*/true);
  Policy::RolloutResult b = policy.rollout(f.graph, e2, r2, /*greedy=*/true);
  EXPECT_EQ(a.actions, b.actions);
}

TEST(Policy, FullGraphBackwardReachesAllParameters) {
  Fixture f;
  Policy policy(PolicyConfig{}, 5);
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(11);
  Policy::RolloutResult r = policy.rollout(f.graph, env, rng);
  r.log_prob_sum.backward();
  for (Tensor& p : policy.parameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0);
  }
}

TEST(Policy, StepwiseBackwardMatchesFullGraphForOneStepEpisode) {
  // With rho = 0 every endpoint overlapping anything is masked after the
  // first pick, collapsing most designs to very short episodes; for a
  // single step there is no recurrent truncation, so the two modes must
  // produce identical gradients.
  Fixture f;
  SelectionEnv probe(&f.graph, 0.0);
  probe.step(0);
  if (!probe.done()) GTEST_SKIP() << "design does not collapse to one step";

  Policy full(PolicyConfig{}, 6);
  Policy step = full.clone();

  SelectionEnv e1(&f.graph, 0.0), e2(&f.graph, 0.0);
  Rng r1(13), r2(13);
  Policy::RolloutResult a =
      full.rollout(f.graph, e1, r1, false, Policy::RolloutMode::FullGraph);
  a.log_prob_sum.backward();
  Policy::RolloutResult b = step.rollout(
      f.graph, e2, r2, false, Policy::RolloutMode::StepwiseBackward);
  ASSERT_EQ(a.actions, b.actions);

  std::vector<Tensor> pa = full.parameters();
  std::vector<Tensor> pb = step.parameters();
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::size_t i = 0; i < pa[p].size(); ++i) {
      ASSERT_NEAR(pa[p].grad()[i], pb[p].grad()[i], 1e-5);
    }
  }
}

TEST(Policy, ModesAgreeStepForStepOnAMultiStepEpisode) {
  // FullGraph re-encodes every step from scratch; the two stepwise modes
  // re-encode only the rows each mask change reaches. The forward values,
  // and so the sampled actions and every step's log-probability, must not
  // depend on the mode.
  Fixture f;
  const Policy policy(PolicyConfig{}, 12);
  const Policy::RolloutMode modes[] = {Policy::RolloutMode::FullGraph,
                                       Policy::RolloutMode::StepwiseBackward,
                                       Policy::RolloutMode::Inference};
  std::vector<Policy::RolloutResult> results;
  std::vector<SelectionAudit> audits(std::size(modes));
  for (std::size_t m = 0; m < std::size(modes); ++m) {
    Policy clone = policy.clone();
    SelectionEnv env(&f.graph, 0.3);
    Rng rng(23);
    results.push_back(clone.rollout(f.graph, env, rng, /*greedy=*/false,
                                    modes[m], &audits[m]));
  }
  ASSERT_GT(results[0].steps, 2) << "the episode must be multi-step";
  for (std::size_t m = 1; m < std::size(modes); ++m) {
    SCOPED_TRACE(::testing::Message() << "mode " << m);
    ASSERT_EQ(results[m].actions, results[0].actions);
    ASSERT_EQ(audits[m].steps.size(), audits[0].steps.size());
    for (std::size_t t = 0; t < audits[0].steps.size(); ++t) {
      const AuditStep& a = audits[0].steps[t];
      const AuditStep& b = audits[m].steps[t];
      EXPECT_EQ(std::memcmp(&a.log_prob, &b.log_prob, sizeof(double)), 0)
          << "step " << t << ": " << a.log_prob << " vs " << b.log_prob;
      EXPECT_EQ(std::memcmp(&a.entropy, &b.entropy, sizeof(double)), 0)
          << "step " << t;
    }
    EXPECT_EQ(std::memcmp(&results[m].log_prob_value,
                          &results[0].log_prob_value, sizeof(double)),
              0);
  }
}

TEST(Policy, InferenceModeLeavesGradientsUntouched) {
  Fixture f;
  Policy policy(PolicyConfig{}, 10);
  for (Tensor& p : policy.parameters()) p.zero_grad();
  SelectionEnv env(&f.graph, 0.3);
  Rng rng(21);
  Policy::RolloutResult r = policy.rollout(
      f.graph, env, rng, /*greedy=*/true, Policy::RolloutMode::Inference);
  EXPECT_GE(r.steps, 1);
  for (Tensor& p : policy.parameters()) {
    for (float g : p.grad()) {
      ASSERT_EQ(g, 0.0f) << "inference rollouts must not write gradients";
    }
  }
}

TEST(Policy, CloneSharesValuesNotStorage) {
  Policy a(PolicyConfig{}, 7);
  Policy b = a.clone();
  std::vector<Tensor> pa = a.parameters();
  std::vector<Tensor> pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t p = 0; p < pa.size(); ++p) {
    for (std::size_t i = 0; i < pa[p].size(); ++i) {
      ASSERT_FLOAT_EQ(pa[p].data()[i], pb[p].data()[i]);
    }
  }
  pb[0].data()[0] += 1.0f;
  EXPECT_NE(pa[0].data()[0], pb[0].data()[0]);
}

TEST(Policy, GnnSaveLoadRoundTrip) {
  Policy a(PolicyConfig{}, 8);
  Policy b(PolicyConfig{}, 9);  // different init
  std::string path = testing::temp_path("gnn.bin");
  ASSERT_TRUE(a.save_gnn(path).ok());
  ASSERT_TRUE(b.load_gnn(path).ok());
  std::vector<Tensor> ga = a.gnn_parameters();
  std::vector<Tensor> gb = b.gnn_parameters();
  for (std::size_t p = 0; p < ga.size(); ++p) {
    for (std::size_t i = 0; i < ga[p].size(); ++i) {
      ASSERT_FLOAT_EQ(ga[p].data()[i], gb[p].data()[i]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rlccd
