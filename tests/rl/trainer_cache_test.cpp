// The flow-outcome cache must be invisible in everything but telemetry:
// training with memoization enabled produces TrainStats::history, final
// policy parameters and the audit JSONL stream byte-identical to a
// cache-disabled run (the flow is deterministic, so a hit returns exactly
// what re-running would have). These tests pin that, plus the evaluator's
// memoization semantics: a repeat selection is served from the cache
// bit-for-bit, permuted selections share one cache line (the key folds the
// selection as a set), and rewards are recomputed on hits with the current
// normalization rather than replayed stale.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/temp_path.h"
#include "rl/audit.h"
#include "rl/design_graph.h"
#include "rl/evaluator.h"
#include "rl/flow_cache.h"
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

TEST(RolloutEvaluatorTest, RepeatSelectionServedFromCacheBitIdentical) {
  Design d = small_design(17);
  DesignGraph graph(d);
  ASSERT_GE(graph.num_endpoints(), 2u);
  std::vector<PinId> sel(graph.violating().begin(),
                         graph.violating().begin() + 2);

  FlowOutcomeCache cache(8);
  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period),
      &cache);
  ev.set_reward_transform(-40.0, 20.0);

  const EvalOutcome miss = ev.evaluate(EvalRequest{sel});
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(miss.flow_ran);
  EXPECT_FALSE(miss.cancelled);
  EXPECT_NE(miss.state_hash, Hash128{});

  const EvalOutcome hit = ev.evaluate(EvalRequest{sel});
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_TRUE(hit.flow_ran);
  EXPECT_EQ(hit.state_hash, miss.state_hash);
  EXPECT_EQ(hit.summary.tns, miss.summary.tns);
  EXPECT_EQ(hit.summary.wns, miss.summary.wns);
  EXPECT_EQ(hit.summary.nve, miss.summary.nve);
  EXPECT_EQ(hit.reward, miss.reward);

  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(RolloutEvaluatorTest, SelectionKeyIsOrderInsensitive) {
  // The flow prioritizes a selection *set*; the policy's emission order is
  // bookkeeping. Permuted trajectories must land on the same cache line.
  Design d = small_design(17);
  DesignGraph graph(d);
  ASSERT_GE(graph.num_endpoints(), 3u);
  std::vector<PinId> sel(graph.violating().begin(),
                         graph.violating().begin() + 3);
  std::vector<PinId> rev(sel.rbegin(), sel.rend());
  std::vector<PinId> shorter(sel.begin(), sel.begin() + 2);

  FlowOutcomeCache cache(8);
  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period),
      &cache);

  EXPECT_EQ(ev.state_hash(sel), ev.state_hash(rev));
  EXPECT_NE(ev.state_hash(sel), ev.state_hash(shorter));
  EXPECT_NE(ev.state_hash(sel), ev.state_hash({}));

  const EvalOutcome first = ev.evaluate(EvalRequest{sel});
  EXPECT_FALSE(first.cache_hit);
  const EvalOutcome permuted = ev.evaluate(EvalRequest{rev});
  EXPECT_TRUE(permuted.cache_hit);
  EXPECT_EQ(permuted.summary.tns, first.summary.tns);
}

TEST(RolloutEvaluatorTest, HitRecomputesRewardWithCurrentTransform) {
  // The trainer learns the normalization (default TNS, reward denominator)
  // after the evaluator exists; memoized entries must follow transform
  // updates instead of replaying the reward they were inserted with.
  Design d = small_design(19);
  DesignGraph graph(d);
  ASSERT_GE(graph.num_endpoints(), 1u);
  std::vector<PinId> sel(graph.violating().begin(),
                         graph.violating().begin() + 1);

  FlowOutcomeCache cache(8);
  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period),
      &cache);

  ev.set_reward_transform(-10.0, 4.0);
  const EvalOutcome miss = ev.evaluate(EvalRequest{sel});
  EXPECT_EQ(miss.reward, (miss.summary.tns - -10.0) / 4.0);

  ev.set_reward_transform(-20.0, 8.0);
  const EvalOutcome hit = ev.evaluate(EvalRequest{sel});
  ASSERT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.reward, (hit.summary.tns - -20.0) / 8.0);
  EXPECT_EQ(hit.summary.tns, miss.summary.tns);
}

TEST(RolloutEvaluatorTest, NullCacheAlwaysRunsTheFlow) {
  Design d = small_design(19);
  DesignGraph graph(d);
  ASSERT_GE(graph.num_endpoints(), 1u);
  std::vector<PinId> sel(graph.violating().begin(),
                         graph.violating().begin() + 1);

  RolloutEvaluator ev(
      &d, default_flow_config(d.netlist->num_real_cells(), d.clock_period),
      /*cache=*/nullptr);

  const EvalOutcome a = ev.evaluate(EvalRequest{sel});
  const EvalOutcome b = ev.evaluate(EvalRequest{sel});
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  // Flow determinism — the property the whole cache rests on.
  EXPECT_EQ(a.summary.tns, b.summary.tns);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.state_hash, b.state_hash);
}

struct TrainRun {
  TrainStats stats;
  std::vector<std::vector<float>> params;
  std::string audit_jsonl;
  FlowOutcomeCache::Stats cache;
  bool had_cache = false;
};

TrainRun run_training(const Design& d, std::size_t flow_cache_mb,
                      const std::string& tag) {
  const std::string path = testing::temp_path("cache_eq_" + tag + ".jsonl");
  std::unique_ptr<JsonlAuditWriter> writer;
  EXPECT_TRUE(JsonlAuditWriter::open(path, writer).ok());

  Policy policy(PolicyConfig{}, 4);
  TrainConfig cfg;
  cfg.workers = 3;
  cfg.max_iterations = 3;
  cfg.min_iterations = 1;
  cfg.patience = 3;
  cfg.flow = default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  cfg.flow_cache_mb = flow_cache_mb;
  cfg.audit = writer.get();
  ReinforceTrainer trainer(&d, &policy, cfg);

  TrainRun run;
  run.stats = trainer.train();
  if (trainer.flow_cache() != nullptr) {
    run.cache = trainer.flow_cache()->stats();
    run.had_cache = true;
  }
  EXPECT_TRUE(writer->close().ok());
  for (const Tensor& p : policy.parameters()) {
    run.params.emplace_back(p.data(), p.data() + p.size());
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  run.audit_jsonl = buf.str();
  std::remove(path.c_str());
  return run;
}

void expect_runs_identical(const TrainRun& cached, const TrainRun& uncached) {
  EXPECT_EQ(cached.stats.iterations, uncached.stats.iterations);
  EXPECT_EQ(cached.stats.flow_runs, uncached.stats.flow_runs);
  EXPECT_EQ(cached.stats.default_tns, uncached.stats.default_tns);
  EXPECT_EQ(cached.stats.best_tns, uncached.stats.best_tns);
  EXPECT_EQ(cached.stats.best_selection, uncached.stats.best_selection);

  ASSERT_EQ(cached.stats.history.size(), uncached.stats.history.size());
  for (std::size_t i = 0; i < cached.stats.history.size(); ++i) {
    const IterationStats& a = cached.stats.history[i];
    const IterationStats& b = uncached.stats.history[i];
    EXPECT_EQ(a.mean_reward, b.mean_reward) << "iter " << i;
    EXPECT_EQ(a.mean_tns, b.mean_tns) << "iter " << i;
    EXPECT_EQ(a.iter_best_tns, b.iter_best_tns) << "iter " << i;
    EXPECT_EQ(a.best_tns, b.best_tns) << "iter " << i;
    EXPECT_EQ(a.mean_steps, b.mean_steps) << "iter " << i;
    EXPECT_EQ(a.mean_entropy, b.mean_entropy) << "iter " << i;
    EXPECT_EQ(a.grad_norm, b.grad_norm) << "iter " << i;
    EXPECT_EQ(a.baseline, b.baseline) << "iter " << i;
  }

  ASSERT_EQ(cached.params.size(), uncached.params.size());
  for (std::size_t p = 0; p < cached.params.size(); ++p) {
    ASSERT_EQ(cached.params[p].size(), uncached.params[p].size());
    for (std::size_t i = 0; i < cached.params[p].size(); ++i) {
      ASSERT_EQ(cached.params[p][i], uncached.params[p][i])
          << "param " << p << " element " << i;
    }
  }

  EXPECT_FALSE(cached.audit_jsonl.empty());
  EXPECT_EQ(cached.audit_jsonl, uncached.audit_jsonl);
}

TEST(TrainerCache, CachedTrainingBitIdenticalToUncached) {
  // Randomized equivalence over a couple of generated designs: the same
  // seed trained with the default cache and with `--flow-cache-mb 0` must
  // agree on every history field, every trained parameter bit, and the
  // audit JSONL stream byte for byte.
  for (std::uint64_t seed : {std::uint64_t{29}, std::uint64_t{173}}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Design d = small_design(seed);
    TrainRun cached = run_training(d, /*flow_cache_mb=*/64,
                                   "on_" + std::to_string(seed));
    TrainRun uncached = run_training(d, /*flow_cache_mb=*/0,
                                     "off_" + std::to_string(seed));

    ASSERT_TRUE(cached.had_cache);
    EXPECT_FALSE(uncached.had_cache);  // 0 disables memoization entirely
    expect_runs_identical(cached, uncached);

    // The cache was genuinely in the loop: every rollout evaluation probed
    // it, so probes cover all flow_runs counted by the trainer.
    EXPECT_GT(cached.cache.misses, 0u);
    EXPECT_GT(cached.cache.entries, 0u);
    EXPECT_GE(cached.cache.hits + cached.cache.misses,
              static_cast<std::uint64_t>(cached.stats.flow_runs));
  }
}

}  // namespace
}  // namespace rlccd
