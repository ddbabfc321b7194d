// Process-isolation matrix (DESIGN.md Sec. 10): the rollout wire codec, the
// fork/poll/kill supervisor against every worker_* fault point (crash, OOM
// kill, result-frame truncation, silent hang), the backoff schedule, and the
// trainer integration — a crash-free isolated run and a transiently-crashing
// isolated run must both be bit-identical to the thread backend, while a
// persistently crashing worker degrades the iteration instead of sinking it,
// and the parent adopts every fresh child outcome into its flow cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/fault.h"
#include "common/ipc.h"
#include "common/telemetry.h"
#include "designgen/blocks.h"
#include "helpers/temp_path.h"
#include "rl/audit.h"
#include "rl/isolation/supervisor.h"
#include "rl/isolation/wire.h"
#include "rl/trainer.h"

namespace rlccd {
namespace {

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

RolloutWire sample_wire() {
  RolloutWire w;
  w.outcome.summary.wns = -1.5;
  w.outcome.summary.tns = -12.5;
  w.outcome.summary.nve = 9;
  w.outcome.summary.num_endpoints = 120;
  w.outcome.summary.worst_hold_slack = 0.0625;
  w.outcome.reward = 0.625;
  w.outcome.flow_ran = true;
  w.outcome.cancelled = false;
  w.outcome.state_hash = Hash128{0x0123456789abcdefull, 0xfedcba9876543210ull};
  w.outcome.cache_hit = true;
  w.steps = 3;
  w.poisoned = false;
  w.selection = {PinId(7), PinId(0), PinId(4095)};
  w.grads = {{1.0f, -2.5f}, {}, {0.0f, 3.25f, -0.125f}};
  AuditStep step;
  step.chosen = 11;
  step.slack = -0.375;
  step.log_prob = -1.25;
  step.entropy = 0.5;
  step.top_probs = {{11, 0.75}, {2, 0.125}};
  step.masked = {{9, 0.8125}, {13, 0.4375}};
  w.audit.steps = {step};
  w.audit.poisoned = false;
  w.telemetry.counters = {{"flow.cancelled", 0}, {"sta.full_runs", 4}};
  w.telemetry.gauges = {{"test.rollout_gauge", 4096}};
  MetricsHistogram::Snapshot h;
  h.merge_value(0.25, -2);
  h.merge_value(1.5, 1);
  w.telemetry.histograms = {{"flow.seconds", h}};
  w.telemetry.spans.name = "<root>";
  SpanNode& rollout = w.telemetry.spans.child("rollout");
  rollout.count = 1;
  rollout.total_sec = 0.25;
  SpanNode& flow = rollout.child("flow");
  flow.count = 1;
  flow.total_sec = 0.125;
  return w;
}

void expect_wire_equal(const RolloutWire& a, const RolloutWire& b) {
  EXPECT_EQ(a.outcome.summary.wns, b.outcome.summary.wns);
  EXPECT_EQ(a.outcome.summary.tns, b.outcome.summary.tns);
  EXPECT_EQ(a.outcome.summary.nve, b.outcome.summary.nve);
  EXPECT_EQ(a.outcome.summary.num_endpoints, b.outcome.summary.num_endpoints);
  EXPECT_EQ(a.outcome.summary.worst_hold_slack,
            b.outcome.summary.worst_hold_slack);
  EXPECT_EQ(a.outcome.reward, b.outcome.reward);
  EXPECT_EQ(a.outcome.flow_ran, b.outcome.flow_ran);
  EXPECT_EQ(a.outcome.cancelled, b.outcome.cancelled);
  EXPECT_EQ(a.outcome.state_hash, b.outcome.state_hash);
  EXPECT_EQ(a.outcome.cache_hit, b.outcome.cache_hit);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.poisoned, b.poisoned);
  ASSERT_EQ(a.selection.size(), b.selection.size());
  for (std::size_t i = 0; i < a.selection.size(); ++i) {
    EXPECT_EQ(a.selection[i], b.selection[i]);
  }
  EXPECT_EQ(a.grads, b.grads);
  EXPECT_EQ(a.audit.poisoned, b.audit.poisoned);
  ASSERT_EQ(a.audit.steps.size(), b.audit.steps.size());
  for (std::size_t t = 0; t < a.audit.steps.size(); ++t) {
    const AuditStep& sa = a.audit.steps[t];
    const AuditStep& sb = b.audit.steps[t];
    EXPECT_EQ(sa.chosen, sb.chosen);
    EXPECT_EQ(sa.slack, sb.slack);
    EXPECT_EQ(sa.log_prob, sb.log_prob);
    EXPECT_EQ(sa.entropy, sb.entropy);
    EXPECT_EQ(sa.top_probs, sb.top_probs);
    ASSERT_EQ(sa.masked.size(), sb.masked.size());
    for (std::size_t m = 0; m < sa.masked.size(); ++m) {
      EXPECT_EQ(sa.masked[m].endpoint, sb.masked[m].endpoint);
      EXPECT_EQ(sa.masked[m].overlap, sb.masked[m].overlap);
    }
  }
  EXPECT_EQ(a.telemetry.counters, b.telemetry.counters);
  EXPECT_EQ(a.telemetry.gauges, b.telemetry.gauges);
  ASSERT_EQ(a.telemetry.histograms.size(), b.telemetry.histograms.size());
  for (std::size_t i = 0; i < a.telemetry.histograms.size(); ++i) {
    EXPECT_EQ(a.telemetry.histograms[i].first, b.telemetry.histograms[i].first);
    const MetricsHistogram::Snapshot& ha = a.telemetry.histograms[i].second;
    const MetricsHistogram::Snapshot& hb = b.telemetry.histograms[i].second;
    EXPECT_EQ(ha.count, hb.count);
    EXPECT_EQ(ha.sum, hb.sum);
    EXPECT_EQ(ha.min, hb.min);
    EXPECT_EQ(ha.max, hb.max);
    EXPECT_EQ(ha.buckets, hb.buckets);
  }
  // Span tree: compare the one path the sample populates.
  const SpanNode* ra = a.telemetry.spans.find("rollout/flow");
  const SpanNode* rb = b.telemetry.spans.find("rollout/flow");
  ASSERT_NE(ra, nullptr);
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(ra->count, rb->count);
  EXPECT_EQ(ra->total_sec, rb->total_sec);
}

TEST(RolloutWireCodec, RoundTripsEveryField) {
  RolloutWire in = sample_wire();
  std::string bytes;
  encode_rollout_wire(in, bytes);
  RolloutWire out;
  ASSERT_TRUE(decode_rollout_wire(bytes, out).ok());
  expect_wire_equal(out, in);
}

TEST(RolloutWireCodec, RejectsEveryTruncationPoint) {
  std::string bytes;
  encode_rollout_wire(sample_wire(), bytes);
  // A frame cut anywhere — byte-granular over the whole payload — must be
  // rejected, never mis-decoded or crashed on.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    RolloutWire out;
    Status s = decode_rollout_wire(std::string_view(bytes).substr(0, cut), out);
    ASSERT_FALSE(s.ok()) << "cut at byte " << cut;
    EXPECT_EQ(s.code(), StatusCode::kCorrupt) << "cut at byte " << cut;
  }
}

TEST(RolloutWireCodec, RejectsVersionMismatchAndTrailingBytes) {
  std::string bytes;
  encode_rollout_wire(sample_wire(), bytes);

  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(RolloutWire::kVersion + 1);
  RolloutWire out;
  EXPECT_FALSE(decode_rollout_wire(wrong_version, out).ok());

  std::string overlong = bytes + '\0';
  EXPECT_FALSE(decode_rollout_wire(overlong, out).ok())
      << "trailing bytes mean the stream is not what the encoder produced";
}

TEST(RolloutWireCodec, InflatedTensorLengthIsCorrupt) {
  RolloutWire in;
  in.grads = {{1.5f, -2.25f}};
  std::string bytes;
  encode_rollout_wire(in, bytes);
  // The one tensor's u64 length, followed by its two values.
  std::string tensor;
  ipc_append_float_vec(tensor, in.grads[0]);
  const std::size_t at = bytes.find(tensor);
  ASSERT_NE(at, std::string::npos);
  // 2^62 floats: the byte count wraps to 0 in a 64-bit size_t, so only a
  // bound on the count itself stops the decoder sizing a vector from it.
  const std::uint64_t inflated = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + at, &inflated, sizeof(inflated));
  RolloutWire out;
  Status s = decode_rollout_wire(bytes, out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt) << s.to_string();
}

// ---------------------------------------------------------------------------
// Supervisor fault matrix
// ---------------------------------------------------------------------------

#ifndef _WIN32

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }

  static std::uint64_t counter(const char* name) {
    return MetricsRegistry::global().counter(name).value();
  }
};

// Default job: deterministic payload naming the worker.
std::string echo_job(int worker) {
  return "payload-" + std::to_string(worker);
}

TEST_F(SupervisorTest, DeliversPayloadsFromAllWorkers) {
  SupervisorConfig cfg;
  cfg.workers = 3;
  RolloutSupervisor sup(cfg);
  std::vector<WorkerOutcome> outs = sup.run(echo_job);
  ASSERT_EQ(outs.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    const WorkerOutcome& o = outs[static_cast<std::size_t>(w)];
    EXPECT_TRUE(o.completed) << "worker " << w;
    EXPECT_EQ(o.payload, "payload-" + std::to_string(w));
    EXPECT_EQ(o.attempts, 1);
    EXPECT_EQ(o.kills, 0);
    EXPECT_TRUE(o.backoff_sec.empty());
    EXPECT_EQ(o.last_failure, WorkerFailure::kNone);
  }
}

TEST_F(SupervisorTest, TransientCrashRestartsAndRecovers) {
  // First spawn of worker 0 exits with code 3; the retry re-runs the same
  // job and succeeds. Worker 1 is untouched.
  FaultInjector::global().arm({"worker_crash", 1, 1, 0.0});
  const std::uint64_t restarts_before = counter("train.worker_restarts");

  SupervisorConfig cfg;
  cfg.workers = 2;
  cfg.backoff_base_sec = 0.005;
  RolloutSupervisor sup(cfg);
  std::vector<WorkerOutcome> outs = sup.run(echo_job);

  ASSERT_EQ(outs.size(), 2u);
  EXPECT_TRUE(outs[0].completed);
  EXPECT_EQ(outs[0].payload, "payload-0");
  EXPECT_EQ(outs[0].attempts, 2);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kExit);
  EXPECT_EQ(outs[0].exit_code, 3);
  ASSERT_EQ(outs[0].backoff_sec.size(), 1u);
  EXPECT_TRUE(outs[1].completed);
  EXPECT_EQ(outs[1].attempts, 1);
  EXPECT_EQ(counter("train.worker_restarts"), restarts_before + 1);
}

TEST_F(SupervisorTest, BackoffScheduleGrowsExponentiallyAndIsDeterministic) {
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.max_restarts = 3;
  cfg.backoff_base_sec = 0.01;
  cfg.backoff_seed = 42;

  auto run_once = [&]() {
    FaultInjector::global().reset();
    FaultInjector::global().arm({"worker_crash", 1, 3, 0.0});
    return RolloutSupervisor(cfg).run(echo_job);
  };

  std::vector<WorkerOutcome> outs = run_once();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_TRUE(outs[0].completed) << "4th attempt is past the fault window";
  EXPECT_EQ(outs[0].attempts, 4);
  ASSERT_EQ(outs[0].backoff_sec.size(), 3u);
  // Restart r waits min(base * 2^r, max) * (1 + u/2), u in [0, 1):
  // disjoint, strictly growing windows for base 0.01.
  const double lo[] = {0.01, 0.02, 0.04};
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_GE(outs[0].backoff_sec[r], lo[r]) << "restart " << r;
    EXPECT_LT(outs[0].backoff_sec[r], lo[r] * 1.5) << "restart " << r;
  }
  EXPECT_LT(outs[0].backoff_sec[0], outs[0].backoff_sec[1]);
  EXPECT_LT(outs[0].backoff_sec[1], outs[0].backoff_sec[2]);

  // Same seed, same worker: the jittered schedule replays exactly.
  std::vector<WorkerOutcome> again = run_once();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].backoff_sec, outs[0].backoff_sec);
}

TEST_F(SupervisorTest, PersistentCrashExhaustsRestarts) {
  FaultInjector::global().arm({"worker_crash", 1, 1 << 20, 0.0});
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.max_restarts = 2;
  cfg.backoff_base_sec = 0.005;
  std::vector<WorkerOutcome> outs = RolloutSupervisor(cfg).run(echo_job);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_FALSE(outs[0].completed);
  EXPECT_EQ(outs[0].attempts, 3) << "max_restarts + 1 attempts, no more";
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kExit);
  EXPECT_EQ(outs[0].exit_code, 3);
  EXPECT_EQ(outs[0].backoff_sec.size(), 2u);
}

TEST_F(SupervisorTest, OomKillClassifiedAsDeathBySignal) {
  FaultInjector::global().arm({"worker_oom", 1, 1, 0.0});
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.backoff_base_sec = 0.005;
  std::vector<WorkerOutcome> outs = RolloutSupervisor(cfg).run(echo_job);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_TRUE(outs[0].completed);
  EXPECT_EQ(outs[0].attempts, 2);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kSignal);
  EXPECT_EQ(outs[0].term_signal, SIGKILL);
  EXPECT_EQ(outs[0].kills, 0) << "the kernel killed it, not the supervisor";
}

TEST_F(SupervisorTest, TruncatedResultFrameClassifiedAsProtocolError) {
  FaultInjector::global().arm({"pipe_truncate", 1, 1, 0.0});
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.backoff_base_sec = 0.005;
  std::vector<WorkerOutcome> outs = RolloutSupervisor(cfg).run(echo_job);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_TRUE(outs[0].completed);
  EXPECT_EQ(outs[0].payload, "payload-0");
  EXPECT_EQ(outs[0].attempts, 2);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kProtocol);
}

TEST_F(SupervisorTest, ThrowingJobClassifiedAsProtocolError) {
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.max_restarts = 0;
  std::vector<WorkerOutcome> outs = RolloutSupervisor(cfg).run(
      [](int) -> std::string { throw std::runtime_error("rollout blew up"); });
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_FALSE(outs[0].completed);
  EXPECT_EQ(outs[0].attempts, 1);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kProtocol)
      << "the child reported the exception in an error frame";
}

TEST_F(SupervisorTest, HungChildIsKilledOnHeartbeatSilence) {
  // The hang fault wedges the child for 30 s WITHOUT heartbeating; the
  // supervisor must SIGKILL it after heartbeat_timeout, not wait it out.
  FaultInjector::global().arm({"worker_hang", 1, 1, 30.0});
  const std::uint64_t kills_before = counter("train.worker_kills");

  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.heartbeat_interval_sec = 0.02;
  cfg.heartbeat_timeout_sec = 0.15;
  cfg.max_restarts = 1;
  cfg.backoff_base_sec = 0.005;
  RolloutSupervisor sup(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<WorkerOutcome> outs = sup.run(echo_job);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ASSERT_EQ(outs.size(), 1u);
  EXPECT_TRUE(outs[0].completed) << "the retry is past the fault window";
  EXPECT_EQ(outs[0].attempts, 2);
  EXPECT_GE(outs[0].kills, 1);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kTimeout);
  EXPECT_EQ(outs[0].term_signal, SIGKILL);
  EXPECT_LT(elapsed, 10.0) << "must not have waited out the 30 s hang";
  EXPECT_GE(counter("train.worker_kills"), kills_before + 1);
}

TEST_F(SupervisorTest, DeadlineKillsRunawayAttemptEvenWhileHeartbeating) {
  // The job sleeps far past the deadline but its heartbeat thread keeps
  // beating — only the hard per-attempt deadline can reap it.
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.deadline_sec = 0.2;
  cfg.heartbeat_interval_sec = 0.02;
  cfg.heartbeat_timeout_sec = 5.0;
  cfg.max_restarts = 0;
  RolloutSupervisor sup(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<WorkerOutcome> outs = sup.run([](int) -> std::string {
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return "too late";
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ASSERT_EQ(outs.size(), 1u);
  EXPECT_FALSE(outs[0].completed);
  EXPECT_EQ(outs[0].attempts, 1);
  EXPECT_EQ(outs[0].kills, 1);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kTimeout);
  EXPECT_LT(elapsed, 10.0);
}

TEST_F(SupervisorTest, KilledAttemptIsKilledOnceWhileItsEofIsInFlight) {
  // The job forks a grandchild that inherits the pipe's write end and holds
  // it for 1 s, so the EOF after the deadline's SIGKILL arrives ~0.8 s late.
  // That wait must not kill (and count) the attempt again on every pass.
  const std::uint64_t kills_before = counter("train.worker_kills");
  SupervisorConfig cfg;
  cfg.workers = 1;
  cfg.deadline_sec = 0.2;
  cfg.max_restarts = 0;
  RolloutSupervisor sup(cfg);
  std::vector<WorkerOutcome> outs = sup.run([](int) -> std::string {
    if (::fork() == 0) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      ::_exit(0);
    }
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return "too late";
  });

  ASSERT_EQ(outs.size(), 1u);
  EXPECT_FALSE(outs[0].completed);
  EXPECT_EQ(outs[0].attempts, 1);
  EXPECT_EQ(outs[0].kills, 1);
  EXPECT_EQ(outs[0].last_failure, WorkerFailure::kTimeout);
  EXPECT_EQ(counter("train.worker_kills"), kills_before + 1);
}

// ---------------------------------------------------------------------------
// Trainer integration
// ---------------------------------------------------------------------------

Design small_design(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.target_cells = 400;
  cfg.seed = seed;
  cfg.clock_tightness = 0.72;
  return generate_design(cfg);
}

struct TrainRun {
  TrainStats stats;
  std::vector<std::vector<float>> params;
  std::string audit_jsonl;
};

TrainRun run_training(const Design& d, bool isolate, const std::string& tag,
                      int max_worker_restarts = 2) {
  const std::string path =
      testing::temp_path("isolation_eq_" + tag + ".jsonl");
  std::unique_ptr<JsonlAuditWriter> writer;
  EXPECT_TRUE(JsonlAuditWriter::open(path, writer).ok());

  Policy policy(PolicyConfig{}, 4);
  TrainConfig cfg;
  cfg.workers = 2;
  cfg.max_iterations = 2;
  cfg.min_iterations = 1;
  cfg.patience = 3;
  cfg.flow = default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  cfg.audit = writer.get();
  cfg.isolate_workers = isolate;
  cfg.max_worker_restarts = max_worker_restarts;
  cfg.worker_backoff_sec = 0.005;  // keep injected-crash retries fast
  ReinforceTrainer trainer(&d, &policy, cfg);

  TrainRun run;
  run.stats = trainer.train();
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

void expect_bit_identical(const TrainRun& a, const TrainRun& b) {
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.flow_runs, b.stats.flow_runs);
  EXPECT_EQ(a.stats.default_tns, b.stats.default_tns);
  EXPECT_EQ(a.stats.best_tns, b.stats.best_tns);
  EXPECT_EQ(a.stats.best_selection, b.stats.best_selection);
  ASSERT_EQ(a.stats.history.size(), b.stats.history.size());
  for (std::size_t i = 0; i < a.stats.history.size(); ++i) {
    const IterationStats& x = a.stats.history[i];
    const IterationStats& y = b.stats.history[i];
    EXPECT_EQ(x.mean_reward, y.mean_reward) << "iter " << i;
    EXPECT_EQ(x.mean_tns, y.mean_tns) << "iter " << i;
    EXPECT_EQ(x.iter_best_tns, y.iter_best_tns) << "iter " << i;
    EXPECT_EQ(x.best_tns, y.best_tns) << "iter " << i;
    EXPECT_EQ(x.mean_steps, y.mean_steps) << "iter " << i;
    EXPECT_EQ(x.mean_entropy, y.mean_entropy) << "iter " << i;
    EXPECT_EQ(x.grad_norm, y.grad_norm) << "iter " << i;
    EXPECT_EQ(x.baseline, y.baseline) << "iter " << i;
  }
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t p = 0; p < a.params.size(); ++p) {
    ASSERT_EQ(a.params[p].size(), b.params[p].size());
    for (std::size_t i = 0; i < a.params[p].size(); ++i) {
      ASSERT_EQ(a.params[p][i], b.params[p][i])
          << "param " << p << " element " << i;
    }
  }
  EXPECT_FALSE(a.audit_jsonl.empty());
  EXPECT_EQ(a.audit_jsonl, b.audit_jsonl);
}

class TrainerIsolation : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!RolloutSupervisor::supported()) {
      GTEST_SKIP() << "no fork() on this platform";
    }
    FaultInjector::global().reset();
  }
  void TearDown() override { FaultInjector::global().reset(); }

  static std::uint64_t counter(const char* name) {
    return MetricsRegistry::global().counter(name).value();
  }
};

TEST_F(TrainerIsolation, CrashFreeRunBitIdenticalToThreadBackend) {
  Design d = small_design(97);
  TrainRun threads = run_training(d, /*isolate=*/false, "threads");
  TrainRun isolated = run_training(d, /*isolate=*/true, "isolated");
  expect_bit_identical(isolated, threads);
}

TEST_F(TrainerIsolation, TransientCrashIsInvisibleInResults) {
  Design d = small_design(98);
  TrainRun threads = run_training(d, /*isolate=*/false, "crash_ref");

  // Worker 0's first spawn of the run dies with exit code 3; the restart
  // re-runs the identical RNG stream, so every downstream byte matches.
  FaultInjector::global().arm({"worker_crash", 1, 1, 0.0});
  const std::uint64_t restarts_before = counter("train.worker_restarts");
  TrainRun isolated = run_training(d, /*isolate=*/true, "crash_iso");
  EXPECT_GE(counter("train.worker_restarts"), restarts_before + 1);
  expect_bit_identical(isolated, threads);
}

TEST_F(TrainerIsolation, TransientOomKillIsInvisibleInResults) {
  Design d = small_design(99);
  TrainRun threads = run_training(d, /*isolate=*/false, "oom_ref");

  FaultInjector::global().arm({"worker_oom", 1, 1, 0.0});
  const std::uint64_t restarts_before = counter("train.worker_restarts");
  TrainRun isolated = run_training(d, /*isolate=*/true, "oom_iso");
  EXPECT_GE(counter("train.worker_restarts"), restarts_before + 1);
  expect_bit_identical(isolated, threads);
}

TEST_F(TrainerIsolation, TruncatedResultFrameIsRetriedTransparently) {
  Design d = small_design(100);
  TrainRun threads = run_training(d, /*isolate=*/false, "trunc_ref");

  FaultInjector::global().arm({"pipe_truncate", 1, 1, 0.0});
  const std::uint64_t restarts_before = counter("train.worker_restarts");
  TrainRun isolated = run_training(d, /*isolate=*/true, "trunc_iso");
  EXPECT_GE(counter("train.worker_restarts"), restarts_before + 1);
  expect_bit_identical(isolated, threads);
}

TEST_F(TrainerIsolation, PersistentCrashDegradesIterationWithSurvivors) {
  Design d = small_design(101);
  // Every spawn of worker 0 crashes; worker 1 keeps delivering. Training
  // must finish on the survivor instead of aborting, and the loss must be
  // visible in the counters and the audit stream.
  FaultInjector::global().arm({"worker_crash", 1, 1 << 20, 0.0});
  const std::uint64_t lost_before = counter("train.workers_lost");
  const std::uint64_t degraded_before = counter("train.iterations_degraded");

  TrainRun isolated = run_training(d, /*isolate=*/true, "degraded",
                                   /*max_worker_restarts=*/1);

  EXPECT_GE(isolated.stats.history.size(), 1u)
      << "iterations proceed on the surviving worker";
  EXPECT_GE(counter("train.workers_lost"), lost_before + 1);
  EXPECT_GE(counter("train.iterations_degraded"), degraded_before + 1);
  EXPECT_NE(isolated.audit_jsonl.find("\"crashed\":true"), std::string::npos)
      << "the lost rollout is recorded in decision provenance";
  EXPECT_NE(isolated.audit_jsonl.find("\"type\":\"iteration\""),
            std::string::npos);
}

// Records each rollout's endpoint set, in emission order: iterations in
// order, then the greedy decode (iteration -1).
class SelectionSetSink : public AuditSink {
 public:
  struct Drawn {
    int iteration = 0;
    std::vector<std::uint32_t> set;  // sorted AuditStep::chosen
    bool flow_ran = false;
  };
  void on_rollout(const RolloutAuditRecord& record) override {
    Drawn d{record.iteration, {}, record.flow_ran};
    for (const AuditStep& step : record.audit->steps) {
      d.set.push_back(step.chosen);
    }
    std::sort(d.set.begin(), d.set.end());
    drawn.push_back(std::move(d));
  }
  void on_iteration(const IterationAuditRecord&) override {}

  std::vector<Drawn> drawn;
};

TEST_F(TrainerIsolation, ChildOutcomesAreAdoptedIntoTheParentCache) {
  // A forked child probes the cache as it stood at the fork, and its own
  // insert dies with the process. So a set can only hit when an earlier
  // iteration drew it and the parent adopted that child's outcome off the
  // wire, and the greedy decode (in the parent, after the last iteration)
  // hits when any rollout drew its set. That makes the hit count exact.
  Design d = generate_design(to_generator_config(find_block("block9"), 0.01));
  SelectionSetSink sink;
  Policy policy(PolicyConfig{}, 4);
  TrainConfig cfg;
  cfg.workers = 4;
  cfg.max_iterations = 4;
  cfg.min_iterations = 4;
  cfg.flow = default_flow_config(d.netlist->num_real_cells(), d.clock_period);
  cfg.audit = &sink;
  cfg.isolate_workers = true;
  const std::uint64_t hits_before = counter("train.cache_hits");
  const std::uint64_t misses_before = counter("train.cache_misses");
  ReinforceTrainer trainer(&d, &policy, cfg);
  (void)trainer.train();

  ASSERT_EQ(sink.drawn.size(), 4u * 4u + 1u);
  std::set<std::vector<std::uint32_t>> earlier;  // sets of past iterations
  std::vector<std::vector<std::uint32_t>> current;
  int iteration = 0;
  std::uint64_t expected_hits = 0;
  for (const SelectionSetSink::Drawn& r : sink.drawn) {
    ASSERT_TRUE(r.flow_ran) << "every rollout probes the cache";
    if (r.iteration != iteration) {
      earlier.insert(current.begin(), current.end());
      current.clear();
      iteration = r.iteration;
    }
    expected_hits += earlier.count(r.set);
    current.push_back(r.set);
  }
  const std::uint64_t probes = sink.drawn.size();
  EXPECT_GT(expected_hits, 0u) << "the run must resample some set";
  EXPECT_EQ(counter("train.cache_hits") - hits_before, expected_hits);
  EXPECT_EQ(counter("train.cache_misses") - misses_before,
            probes - expected_hits);
}

#endif  // !_WIN32

}  // namespace
}  // namespace rlccd
