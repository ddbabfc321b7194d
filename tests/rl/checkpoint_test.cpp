// Fault-tolerance tests: checkpoint codec round trips, kill/resume
// bit-identical replay, NaN-poisoned trajectory recovery, checkpoint I/O
// failure recovery, corrupt-checkpoint fallback (torn, truncated, or
// CRC-valid with an inflated count), and the rollout watchdog.
#include "rl/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/fault.h"
#include "common/io.h"
#include "common/telemetry.h"
#include "helpers/temp_path.h"
#include "rl/trainer.h"

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

// Fresh empty directory under the test temp root.
std::string fresh_dir(const char* name) {
  std::string dir = testing::temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

TrainCheckpoint sample_checkpoint() {
  TrainCheckpoint ckpt;
  ckpt.seed = 17;
  ckpt.workers = 4;
  ckpt.next_iter = 5;
  ckpt.baseline = -0.375;
  ckpt.baseline_init = true;
  ckpt.stall = 2;
  ckpt.rng_state = 0xDEADBEEFCAFEull;
  ckpt.params = {{1.0f, 2.0f, 3.0f, 4.0f}, {0.5f}};
  ckpt.param_shapes = {{2, 2}, {1, 1}};
  ckpt.adam.t = 9;
  ckpt.adam.m = {{0.1f, 0.2f, 0.3f, 0.4f}, {0.9f}};
  ckpt.adam.v = {{0.01f, 0.02f, 0.03f, 0.04f}, {0.81f}};
  ckpt.stats.begin_tns = -123.5;
  ckpt.stats.default_tns = -61.25;
  ckpt.stats.default_nve = 37;
  ckpt.stats.best_tns = -58.0;
  ckpt.stats.best_selection = {PinId(3), PinId(11), PinId(42)};
  ckpt.stats.history = {{-0.5, -60.0, -59.0, -58.0, 6.0},
                        {-0.25, -59.5, -58.5, -58.0, 5.5}};
  ckpt.stats.iterations = 2;
  ckpt.stats.flow_runs = 8;
  return ckpt;
}

TEST(Checkpoint, PathEncodesIterationCount) {
  EXPECT_EQ(checkpoint_path("dir", 3), "dir/ckpt-000003.rlccd");
  EXPECT_EQ(checkpoint_path("dir", 123456), "dir/ckpt-123456.rlccd");
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  std::string dir = fresh_dir("ckpt_roundtrip");
  TrainCheckpoint ckpt = sample_checkpoint();
  std::string path = checkpoint_path(dir, ckpt.stats.iterations);
  ASSERT_TRUE(save_checkpoint(ckpt, path).ok());

  TrainCheckpoint back;
  ASSERT_TRUE(load_checkpoint(back, path).ok());
  EXPECT_EQ(back.seed, ckpt.seed);
  EXPECT_EQ(back.workers, ckpt.workers);
  EXPECT_EQ(back.next_iter, ckpt.next_iter);
  EXPECT_EQ(back.baseline, ckpt.baseline);
  EXPECT_EQ(back.baseline_init, ckpt.baseline_init);
  EXPECT_EQ(back.stall, ckpt.stall);
  EXPECT_EQ(back.rng_state, ckpt.rng_state);
  EXPECT_EQ(back.params, ckpt.params);
  EXPECT_EQ(back.param_shapes, ckpt.param_shapes);
  EXPECT_EQ(back.adam.t, ckpt.adam.t);
  EXPECT_EQ(back.adam.m, ckpt.adam.m);
  EXPECT_EQ(back.adam.v, ckpt.adam.v);
  EXPECT_EQ(back.stats.begin_tns, ckpt.stats.begin_tns);
  EXPECT_EQ(back.stats.default_tns, ckpt.stats.default_tns);
  EXPECT_EQ(back.stats.default_nve, ckpt.stats.default_nve);
  EXPECT_EQ(back.stats.best_tns, ckpt.stats.best_tns);
  ASSERT_EQ(back.stats.best_selection.size(),
            ckpt.stats.best_selection.size());
  for (std::size_t i = 0; i < ckpt.stats.best_selection.size(); ++i) {
    EXPECT_EQ(back.stats.best_selection[i], ckpt.stats.best_selection[i]);
  }
  ASSERT_EQ(back.stats.history.size(), ckpt.stats.history.size());
  for (std::size_t i = 0; i < ckpt.stats.history.size(); ++i) {
    EXPECT_EQ(back.stats.history[i].mean_reward,
              ckpt.stats.history[i].mean_reward);
    EXPECT_EQ(back.stats.history[i].mean_tns, ckpt.stats.history[i].mean_tns);
    EXPECT_EQ(back.stats.history[i].iter_best_tns,
              ckpt.stats.history[i].iter_best_tns);
    EXPECT_EQ(back.stats.history[i].best_tns, ckpt.stats.history[i].best_tns);
    EXPECT_EQ(back.stats.history[i].mean_steps,
              ckpt.stats.history[i].mean_steps);
  }
  EXPECT_EQ(back.stats.iterations, ckpt.stats.iterations);
  EXPECT_EQ(back.stats.flow_runs, ckpt.stats.flow_runs);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ListReturnsNewestFirstAndNotFoundWhenEmpty) {
  std::string dir = fresh_dir("ckpt_list");
  std::vector<std::string> paths;
  Status empty = list_checkpoints(dir, paths);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.code(), StatusCode::kNotFound);

  TrainCheckpoint ckpt = sample_checkpoint();
  for (int it : {1, 3, 2}) {
    ASSERT_TRUE(save_checkpoint(ckpt, checkpoint_path(dir, it)).ok());
  }
  // A stray non-checkpoint file must be ignored.
  std::ofstream(dir + "/notes.txt") << "not a checkpoint";
  ASSERT_TRUE(list_checkpoints(dir, paths).ok());
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], checkpoint_path(dir, 3));
  EXPECT_EQ(paths[1], checkpoint_path(dir, 2));
  EXPECT_EQ(paths[2], checkpoint_path(dir, 1));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadRejectsCorruptionAndWrongMagic) {
  std::string dir = fresh_dir("ckpt_corrupt");
  TrainCheckpoint ckpt = sample_checkpoint();
  std::string path = checkpoint_path(dir, 1);
  ASSERT_TRUE(save_checkpoint(ckpt, path).ok());

  // Flip one payload byte: the CRC must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5A);
    f.seekp(40);
    f.write(&b, 1);
  }
  TrainCheckpoint back;
  Status s = load_checkpoint(back, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);

  // A version 2 file (it still carried TrainStats::train_seconds), which
  // resume skips like any other unloadable checkpoint.
  ASSERT_TRUE(save_checkpoint(ckpt, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint32_t v2 = 2;
    f.seekp(10);  // just past the magic
    f.write(reinterpret_cast<const char*>(&v2), sizeof(v2));
  }
  s = load_checkpoint(back, path);
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  EXPECT_NE(s.message().find("version 2"), std::string::npos) << s.message();

  // Wrong magic.
  std::ofstream(path, std::ios::binary) << "JUNKJUNKJUNKJUNK";
  s = load_checkpoint(back, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);

  // Missing file.
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(load_checkpoint(back, path).ok());
}

TEST(Checkpoint, InjectedIoFaultsSurfaceAsIoErrors) {
  std::string dir = fresh_dir("ckpt_iofault");
  TrainCheckpoint ckpt = sample_checkpoint();
  std::string path = checkpoint_path(dir, 1);
  FaultInjector::global().reset();
  FaultInjector::global().arm({"ckpt_write_io", 1, 1, 0.0});
  Status w = save_checkpoint(ckpt, path);
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.code(), StatusCode::kIoError);
  ASSERT_TRUE(save_checkpoint(ckpt, path).ok());  // window exhausted

  FaultInjector::global().arm({"ckpt_read_io", 1, 1, 0.0});
  TrainCheckpoint back;
  Status r = load_checkpoint(back, path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), StatusCode::kIoError);
  EXPECT_TRUE(load_checkpoint(back, path).ok());
  FaultInjector::global().reset();
  std::filesystem::remove_all(dir);
}

void expect_bit_identical(const TrainStats& a, const TrainStats& b) {
  EXPECT_EQ(a.begin_tns, b.begin_tns);
  EXPECT_EQ(a.default_tns, b.default_tns);
  EXPECT_EQ(a.default_nve, b.default_nve);
  EXPECT_EQ(a.best_tns, b.best_tns);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.flow_runs, b.flow_runs);
  ASSERT_EQ(a.best_selection.size(), b.best_selection.size());
  for (std::size_t i = 0; i < a.best_selection.size(); ++i) {
    EXPECT_EQ(a.best_selection[i], b.best_selection[i]);
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].mean_reward, b.history[i].mean_reward) << i;
    EXPECT_EQ(a.history[i].mean_tns, b.history[i].mean_tns) << i;
    EXPECT_EQ(a.history[i].iter_best_tns, b.history[i].iter_best_tns) << i;
    EXPECT_EQ(a.history[i].best_tns, b.history[i].best_tns) << i;
    EXPECT_EQ(a.history[i].mean_steps, b.history[i].mean_steps) << i;
  }
}

TEST(TrainerFault, KillAndResumeReplaysBitIdentically) {
  Design d = small_design();
  FaultInjector::global().reset();

  // Reference: uninterrupted run with checkpointing on.
  std::string ref_dir = fresh_dir("resume_ref");
  TrainStats ref;
  {
    Policy policy(PolicyConfig{}, 1);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = ref_dir;
    ref = ReinforceTrainer(&d, &policy, cfg).train();
  }
  ASSERT_GE(ref.iterations, 2) << "need at least 2 iterations to interrupt";

  // Interrupted run: injected crash right after the first checkpoint.
  std::string dir = fresh_dir("resume_killed");
  {
    FaultInjector::global().arm({"train_crash", 1, 1, 0.0});
    Policy policy(PolicyConfig{}, 1);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    TrainStats partial = ReinforceTrainer(&d, &policy, cfg).train();
    FaultInjector::global().reset();
    EXPECT_EQ(partial.iterations, 1);
    EXPECT_LT(partial.flow_runs, ref.flow_runs);
  }

  // Resumed run: a FRESH policy (different random init) restored from the
  // checkpoint must replay the remaining iterations bit-identically.
  MetricsCounter& resumes = MetricsRegistry::global().counter("train.resumes");
  const std::uint64_t resumes_before = resumes.value();
  {
    Policy policy(PolicyConfig{}, 999);  // init is overwritten by restore
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    cfg.resume = true;
    TrainStats resumed = ReinforceTrainer(&d, &policy, cfg).train();
    expect_bit_identical(resumed, ref);
  }
  EXPECT_EQ(resumes.value() - resumes_before, 1u);
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

TEST(TrainerFault, CorruptNewestCheckpointFallsBackToOlder) {
  Design d = small_design(93);
  FaultInjector::global().reset();
  std::string dir = fresh_dir("resume_fallback");
  TrainStats ref;
  {
    Policy policy(PolicyConfig{}, 2);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    ref = ReinforceTrainer(&d, &policy, cfg).train();
  }
  std::vector<std::string> paths;
  ASSERT_TRUE(list_checkpoints(dir, paths).ok());
  ASSERT_GE(paths.size(), 2u);
  // Corrupt the newest checkpoint; resume must fall back to the previous
  // one and still replay to the identical final state.
  std::ofstream(paths[0], std::ios::binary) << "RLCCDCKPT1 but corrupted";
  {
    Policy policy(PolicyConfig{}, 999);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    cfg.resume = true;
    TrainStats resumed = ReinforceTrainer(&d, &policy, cfg).train();
    expect_bit_identical(resumed, ref);
  }
  std::filesystem::remove_all(dir);
}

TEST(TrainerFault, CrcValidCheckpointWithInflatedCountFallsBackToOlder) {
  Design d = small_design(96);
  FaultInjector::global().reset();
  std::string dir = fresh_dir("resume_inflated");
  TrainStats ref;
  std::size_t n_params = 0;
  {
    Policy policy(PolicyConfig{}, 2);
    n_params = policy.parameters().size();
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    ref = ReinforceTrainer(&d, &policy, cfg).train();
  }
  std::vector<std::string> paths;
  ASSERT_TRUE(list_checkpoints(dir, paths).ok());
  ASSERT_GE(paths.size(), 2u);

  // Claim 2^62 parameters in the newest checkpoint and re-seal its CRC, so
  // only the payload decoder stands between the count and an allocation.
  // Header: magic[10], u32 version, u64 payload size, u32 CRC. Payload:
  // seed u64, workers i32, next_iter i32, baseline f64, baseline_init u8,
  // stall i32, rng_state u64, then the u64 parameter count.
  constexpr std::size_t kHeader = 10 + 4 + 8 + 4;
  constexpr std::size_t kCountAt = 8 + 4 + 4 + 8 + 1 + 4 + 8;
  std::string file;
  ASSERT_TRUE(read_file(paths[0], file).ok());
  ASSERT_GT(file.size(), kHeader + kCountAt + 8);
  std::string payload = file.substr(kHeader);
  std::uint64_t count = 0;
  std::memcpy(&count, payload.data() + kCountAt, sizeof(count));
  ASSERT_EQ(count, n_params) << "payload layout moved";
  count = std::uint64_t{1} << 62;
  std::memcpy(payload.data() + kCountAt, &count, sizeof(count));
  const std::uint32_t crc = crc32(payload);
  file = file.substr(0, kHeader - sizeof(crc));
  file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  file += payload;
  std::ofstream(paths[0], std::ios::binary | std::ios::trunc) << file;

  TrainCheckpoint direct;
  Status inflated = load_checkpoint(direct, paths[0]);
  ASSERT_FALSE(inflated.ok()) << "inflated count must not load";
  EXPECT_EQ(inflated.code(), StatusCode::kCorrupt) << inflated.to_string();

  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& skipped = reg.counter("train.checkpoints_skipped");
  MetricsCounter& resumes = reg.counter("train.resumes");
  const std::uint64_t skipped_before = skipped.value();
  const std::uint64_t resumes_before = resumes.value();
  {
    Policy policy(PolicyConfig{}, 999);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    cfg.resume = true;
    TrainStats resumed = ReinforceTrainer(&d, &policy, cfg).train();
    expect_bit_identical(resumed, ref);
  }
  EXPECT_EQ(skipped.value() - skipped_before, 1u);
  EXPECT_EQ(resumes.value() - resumes_before, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TrainerFault, TruncatedNewestCheckpointFallsBackWithWarning) {
  Design d = small_design(94);
  FaultInjector::global().reset();
  std::string dir = fresh_dir("resume_truncated");
  TrainStats ref;
  {
    Policy policy(PolicyConfig{}, 2);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    ref = ReinforceTrainer(&d, &policy, cfg).train();
  }
  std::vector<std::string> paths;
  ASSERT_TRUE(list_checkpoints(dir, paths).ok());
  ASSERT_GE(paths.size(), 2u);

  // Truncate the newest checkpoint mid-payload: the header (magic, version,
  // payload size, CRC) survives, the payload does not — exactly what a
  // crash or full disk during a non-atomic copy produces.
  const auto full_size = std::filesystem::file_size(paths[0]);
  ASSERT_GT(full_size, 64u);
  std::filesystem::resize_file(paths[0], full_size - full_size / 3);
  TrainCheckpoint direct;
  Status truncated = load_checkpoint(direct, paths[0]);
  ASSERT_FALSE(truncated.ok()) << "truncated checkpoint must not load";
  EXPECT_EQ(truncated.code(), StatusCode::kCorrupt) << truncated.to_string();

  // Resume skips the truncated file with a counted warning — not a silent
  // fresh start — and replays from the previous checkpoint bit-identically.
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& skipped = reg.counter("train.checkpoints_skipped");
  MetricsCounter& resumes = reg.counter("train.resumes");
  const std::uint64_t skipped_before = skipped.value();
  const std::uint64_t resumes_before = resumes.value();
  {
    Policy policy(PolicyConfig{}, 999);
    TrainConfig cfg = fast_config(d);
    cfg.checkpoint_dir = dir;
    cfg.resume = true;
    TrainStats resumed = ReinforceTrainer(&d, &policy, cfg).train();
    expect_bit_identical(resumed, ref);
  }
  EXPECT_GE(skipped.value() - skipped_before, 1u);
  EXPECT_EQ(resumes.value() - resumes_before, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TrainerFault, NanRewardPoisonsOneTrajectoryWithoutAborting) {
  Design d = small_design(95);
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& poisoned = reg.counter("train.trajectories_poisoned");
  MetricsCounter& failed = reg.counter("train.iterations_failed");
  const std::uint64_t poisoned_before = poisoned.value();
  const std::uint64_t failed_before = failed.value();

  FaultInjector::global().reset();
  FaultInjector::global().arm({"nan_reward", 1, 1, 0.0});
  Policy policy(PolicyConfig{}, 3);
  TrainConfig cfg = fast_config(d);
  cfg.max_iterations = 2;
  TrainStats stats = ReinforceTrainer(&d, &policy, cfg).train();
  FaultInjector::global().reset();

  EXPECT_EQ(poisoned.value() - poisoned_before, 1u);
  EXPECT_EQ(failed.value() - failed_before, 0u)
      << "one surviving trajectory keeps the iteration alive";
  EXPECT_EQ(stats.iterations, 2);
  ASSERT_EQ(stats.history.size(), 2u);
  for (const IterationStats& is : stats.history) {
    EXPECT_TRUE(std::isfinite(is.mean_reward));
    EXPECT_TRUE(std::isfinite(is.mean_tns));
  }
}

TEST(TrainerFault, AllPoisonedIterationsDropThenRollBack) {
  // Record recovery progress events alongside the counters.
  struct Event {
    std::string step;
    double rolled_back;
  };
  class RecordingObserver : public ProgressObserver {
   public:
    void on_event(const ProgressEvent& e) override {
      if (e.phase != "train") return;
      events.push_back({std::string(e.step), e.metric("rolled_back")});
    }
    std::vector<Event> events;
  };

  Design d = small_design(97);
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& poisoned = reg.counter("train.trajectories_poisoned");
  MetricsCounter& failed = reg.counter("train.iterations_failed");
  MetricsCounter& rollbacks = reg.counter("train.rollbacks");
  const std::uint64_t poisoned_before = poisoned.value();
  const std::uint64_t failed_before = failed.value();
  const std::uint64_t rollbacks_before = rollbacks.value();

  FaultInjector::global().reset();
  // Poison every trajectory of the first two iterations (2 workers x 2).
  FaultInjector::global().arm({"nan_reward", 1, 4, 0.0});
  RecordingObserver observer;
  Policy policy(PolicyConfig{}, 4);
  TrainConfig cfg = fast_config(d);
  cfg.observer = &observer;
  cfg.rollback_after = 2;
  TrainStats stats = ReinforceTrainer(&d, &policy, cfg).train();
  FaultInjector::global().reset();

  EXPECT_EQ(poisoned.value() - poisoned_before, 4u);
  EXPECT_EQ(failed.value() - failed_before, 2u);
  EXPECT_EQ(rollbacks.value() - rollbacks_before, 1u);
  EXPECT_EQ(stats.iterations, 1) << "only the third iteration lands";
  ASSERT_EQ(stats.history.size(), 1u);

  std::vector<std::string> steps;
  int rolled_back_events = 0;
  for (const Event& e : observer.events) {
    steps.push_back(e.step);
    if (e.step == "recovery" && e.rolled_back == 1.0) ++rolled_back_events;
  }
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0], "recovery");
  EXPECT_EQ(steps[1], "recovery");
  EXPECT_EQ(steps[2], "iteration");
  EXPECT_EQ(rolled_back_events, 1);
}

TEST(TrainerFault, CheckpointWriteFailureDoesNotAbortTraining) {
  Design d = small_design(99);
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& written = reg.counter("train.checkpoints_written");
  MetricsCounter& failures = reg.counter("train.checkpoint_failures");
  const std::uint64_t written_before = written.value();
  const std::uint64_t failures_before = failures.value();

  FaultInjector::global().reset();
  FaultInjector::global().arm({"ckpt_write_io", 1, 1, 0.0});
  std::string dir = fresh_dir("ckpt_write_fault");
  Policy policy(PolicyConfig{}, 5);
  TrainConfig cfg = fast_config(d);
  cfg.checkpoint_dir = dir;
  TrainStats stats = ReinforceTrainer(&d, &policy, cfg).train();
  FaultInjector::global().reset();

  EXPECT_EQ(failures.value() - failures_before, 1u);
  EXPECT_GE(stats.iterations, 2);
  EXPECT_EQ(written.value() - written_before,
            static_cast<std::uint64_t>(stats.iterations - 1))
      << "every checkpoint after the failed first one must land";
  std::vector<std::string> paths;
  ASSERT_TRUE(list_checkpoints(dir, paths).ok());
  EXPECT_EQ(paths.size(), static_cast<std::size_t>(stats.iterations - 1));
  std::filesystem::remove_all(dir);
}

TEST(TrainerFault, WatchdogCancelsStalledRollout) {
  Design d = small_design(101);
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& cancelled = reg.counter("train.rollouts_cancelled");
  MetricsCounter& flow_cancelled = reg.counter("flow.cancelled");
  const std::uint64_t cancelled_before = cancelled.value();
  const std::uint64_t flow_cancelled_before = flow_cancelled.value();

  FaultInjector::global().reset();
  // Stall one worker well past the rollout deadline; the flow must observe
  // the expired token at a pass boundary and cancel.
  FaultInjector::global().arm({"rollout_stall", 1, 1, /*seconds=*/3.0});
  Policy policy(PolicyConfig{}, 6);
  TrainConfig cfg = fast_config(d);
  cfg.max_iterations = 1;
  cfg.rollout_deadline_sec = 2.0;
  TrainStats stats = ReinforceTrainer(&d, &policy, cfg).train();
  FaultInjector::global().reset();

  EXPECT_EQ(cancelled.value() - cancelled_before, 1u);
  EXPECT_GE(flow_cancelled.value() - flow_cancelled_before, 1u);
  EXPECT_EQ(stats.iterations, 1)
      << "the surviving trajectory carries the iteration";
  ASSERT_EQ(stats.history.size(), 1u);
  EXPECT_TRUE(std::isfinite(stats.history[0].mean_tns));
}

}  // namespace
}  // namespace rlccd
