#include "rl/trainer.h"

#include <gtest/gtest.h>

namespace rlccd {
namespace {

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

TEST(Trainer, RecordsHistoryAndBaselines) {
  Design d = small_design();
  Policy policy(PolicyConfig{}, 1);
  ReinforceTrainer trainer(&d, &policy, fast_config(d));
  TrainStats stats = trainer.train();

  EXPECT_LT(stats.begin_tns, 0.0);
  EXPECT_GE(stats.default_tns, stats.begin_tns);
  EXPECT_GE(stats.iterations, 1);
  EXPECT_EQ(stats.history.size(), static_cast<std::size_t>(stats.iterations));
  // workers rollouts per iteration plus the final greedy decode.
  EXPECT_EQ(stats.flow_runs, stats.iterations * 2 + 1);
}

TEST(Trainer, BestNeverWorseThanDefault) {
  Design d = small_design(93);
  Policy policy(PolicyConfig{}, 2);
  ReinforceTrainer trainer(&d, &policy, fast_config(d));
  TrainStats stats = trainer.train();
  EXPECT_GE(stats.best_tns, stats.default_tns)
      << "the empty selection is always available as a fallback";
  // best_tns history is monotone non-decreasing.
  for (std::size_t i = 1; i < stats.history.size(); ++i) {
    EXPECT_GE(stats.history[i].best_tns, stats.history[i - 1].best_tns);
  }
}

TEST(Trainer, EvaluateSelectionDoesNotMutateDesign) {
  Design d = small_design(95);
  Policy policy(PolicyConfig{}, 3);
  ReinforceTrainer trainer(&d, &policy, fast_config(d));
  std::size_t cells_before = d.netlist->num_cells();
  FlowResult r = trainer.evaluate_selection({});
  EXPECT_EQ(d.netlist->num_cells(), cells_before)
      << "the flow must run on a copy";
  EXPECT_GE(r.final_summary.tns, r.begin.tns);
}

TEST(Trainer, DeterministicAcrossRuns) {
  Design d = small_design(97);
  auto run_once = [&]() {
    Policy policy(PolicyConfig{}, 4);
    ReinforceTrainer trainer(&d, &policy, fast_config(d));
    return trainer.train();
  };
  TrainStats a = run_once();
  TrainStats b = run_once();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_DOUBLE_EQ(a.best_tns, b.best_tns);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].mean_tns, b.history[i].mean_tns);
  }
}

TEST(Trainer, EarlyStopsAfterPatienceExhausted) {
  Design d = small_design(99);
  Policy policy(PolicyConfig{}, 5);
  TrainConfig cfg = fast_config(d);
  cfg.max_iterations = 50;
  cfg.patience = 2;
  cfg.min_iterations = 1;
  ReinforceTrainer trainer(&d, &policy, cfg);
  TrainStats stats = trainer.train();
  EXPECT_LT(stats.iterations, 50) << "patience should stop training early";
}

TEST(Trainer, ObserverReceivesOneEventPerIteration) {
  // The observer contract: exactly one "train"/"iteration" event per
  // iteration, carrying the same values recorded in TrainStats::history.
  struct Recorded {
    int index;
    double seconds;
    double mean_reward, mean_tns, iter_best_tns, best_tns, mean_steps;
  };
  class RecordingObserver : public ProgressObserver {
   public:
    void on_event(const ProgressEvent& e) override {
      ASSERT_EQ(e.phase, "train");
      ASSERT_EQ(e.step, "iteration");
      events.push_back(Recorded{
          e.index, e.seconds, e.metric("mean_reward"), e.metric("mean_tns"),
          e.metric("iter_best_tns"), e.metric("best_tns"),
          e.metric("mean_steps")});
    }
    std::vector<Recorded> events;
  };

  Design d = small_design(103);
  Policy policy(PolicyConfig{}, 7);
  RecordingObserver observer;
  TrainConfig cfg = fast_config(d);
  cfg.observer = &observer;
  ReinforceTrainer trainer(&d, &policy, cfg);
  TrainStats stats = trainer.train();

  ASSERT_EQ(observer.events.size(), stats.history.size());
  for (std::size_t i = 0; i < stats.history.size(); ++i) {
    const Recorded& e = observer.events[i];
    const IterationStats& h = stats.history[i];
    EXPECT_EQ(e.index, static_cast<int>(i));
    EXPECT_GT(e.seconds, 0.0);
    EXPECT_DOUBLE_EQ(e.mean_reward, h.mean_reward);
    EXPECT_DOUBLE_EQ(e.mean_tns, h.mean_tns);
    EXPECT_DOUBLE_EQ(e.iter_best_tns, h.iter_best_tns);
    EXPECT_DOUBLE_EQ(e.best_tns, h.best_tns);
    EXPECT_DOUBLE_EQ(e.mean_steps, h.mean_steps);
  }
}

TEST(Trainer, ParallelWorkersMatchMoreWorkersDeterminism) {
  // Different worker counts explore differently but both must be valid and
  // deterministic; 1-worker training must also work (degenerate case).
  Design d = small_design(101);
  Policy policy(PolicyConfig{}, 6);
  TrainConfig cfg = fast_config(d);
  cfg.workers = 1;
  ReinforceTrainer trainer(&d, &policy, cfg);
  TrainStats stats = trainer.train();
  EXPECT_GE(stats.iterations, 1);
}

}  // namespace
}  // namespace rlccd
