// What bench_e2e measures: the workloads and every metric name, unit and
// better direction. BENCHMARK.json at the repository root must list the
// same names; `bench_e2e --list` prints this catalog and run.py compares
// the two on every run (and the bench_e2e_names ctest does the same).
#pragma once

#include <string_view>

namespace rlccd::bench {

enum class WorkloadKind { kTrain, kFlow, kServe };

struct Workload {
  std::string_view name;
  WorkloadKind kind;
  std::string_view block;  // Table II block the design is generated from
  double scale;            // of the paper's cell count
  int workers;             // rollout workers / flow threads / job slots
  int iterations;          // REINFORCE iterations per run (train, serve job)
  bool isolate;            // fork-per-rollout trainer backend
  int min_repeats;         // fresh processes per run, at least
};

// train_batched: batched decode on a 1K-cell block, policy-bound.
// train_isolated: fork-per-rollout backend, 100 short iterations where the
//   flow cache hits and per-iteration overheads dominate.
// flow_quarter: reward flows on a quarter of a paper block (21K cells), no
//   policy, no cache hits.
// serve_closed: 3 closed-loop clients on a 2-slot rlccd_serve daemon.
//
// Every design is small enough that a repeat takes seconds: a run is a
// median over many repeats and ops, which is what keeps it steady on a
// shared host (see README.md, "Why these sizes").
inline constexpr Workload kWorkloads[] = {
    {"train_batched", WorkloadKind::kTrain, "block18", 0.0025, 4, 12, false, 3},
    {"train_isolated", WorkloadKind::kTrain, "block9", 0.01, 4, 100, true, 3},
    {"flow_quarter", WorkloadKind::kFlow, "block10", 0.25, 4, 0, false, 3},
    {"serve_closed", WorkloadKind::kServe, "block11", 0.01, 2, 2, false, 2},
};

// Serve workload shape: daemon job slots, closed-loop clients, jobs each
// client runs per repeat, and the number of distinct job seeds
// (S..S+kServeSeeds-1). Workload::workers is the rollout workers per job.
inline constexpr int kServeSlots = 2;
inline constexpr int kServeClients = 3;
inline constexpr int kServeJobsPerClient = 10;
inline constexpr int kServeSeeds = 5;
// flow_quarter: timed evaluations per thread per repeat, after one untimed
// warm-up evaluation per thread (a thread's first evaluation builds its
// scratch state and can take several times as long).
inline constexpr int kFlowEvalsPerThread = 12;

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  // "lower" | "higher"
};

// End-to-end metrics, measured with tracing off. "op" is the workload's unit
// of work: a training iteration, a reward-flow evaluation, a serve job
// (submit to terminal status).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},       // design load / daemon start, per repeat
    {"run_s", "s", "lower"},         // a repeat's fixed work after set-up
    {"op_p50_s", "s", "lower"},      // median op latency
    {"peak_rss_mb", "MB", "lower"},  // max RSS of a repeat's process tree
};

// Per-layer metrics, from the traced run (probes + the traced repeat).
inline constexpr MetricDef kPerLayer[] = {
    {"designgen.generate_s", "s", "lower"},
    {"rl.design_graph.build_s", "s", "lower"},
    {"rl.design_graph.features_ms", "ms", "lower"},
    {"netlist.copy_s", "s", "lower"},
    {"sta.run_s", "s", "lower"},
    {"sta.update_s", "s", "lower"},
    {"sta.pin_updates", "count", "lower"},
    {"opt.useful_skew_s", "s", "lower"},
    {"opt.data_rounds_s", "s", "lower"},
    {"opt.skew_touchup_s", "s", "lower"},
    {"opt.final_sizing_s", "s", "lower"},
    {"opt.hold_fix_s", "s", "lower"},
    {"opt.legalize_s", "s", "lower"},
    {"opt.after_skew_tns", "ns", "higher"},
    {"opt.final_tns", "ns", "higher"},
    {"rl.evaluator.miss_s", "s", "lower"},
    {"rl.evaluator.hit_s", "s", "lower"},
    {"rl.flow_cache.hit_pct", "%", "higher"},
    {"rl.flow_cache.probes", "count", "lower"},
    {"rl.flow_cache.build_s", "s", "lower"},
    {"gnn.ep_gnn.forward_ms", "ms", "lower"},
    {"rl.policy.decode_batched_s", "s", "lower"},
    {"rl.policy.decode_step_ms", "ms", "lower"},
    {"rl.policy.replay_backward_s", "s", "lower"},
    {"rl.policy.decode_stepwise_s", "s", "lower"},
    {"rl.policy.greedy_s", "s", "lower"},
    {"rl.policy.clone_s", "s", "lower"},
    {"rl.policy.steps", "count", "lower"},
    {"nn.optim.step_s", "s", "lower"},
    {"rl.trainer.rollout_batched_pct", "%", "lower"},
    {"rl.trainer.rollout_thread_pct", "%", "lower"},
    {"rl.trainer.flow_thread_pct", "%", "lower"},
    {"rl.isolation.fork_rtt_s", "s", "lower"},
    {"rl.isolation.wire_codec_s", "s", "lower"},
    {"rl.isolation.wire_bytes", "B", "lower"},
    {"rl.checkpoint.save_s", "s", "lower"},
    {"rl.checkpoint.bytes", "B", "lower"},
    {"serve.submit_rtt_ms", "ms", "lower"},
    {"serve.queue_wait_mean_s", "s", "lower"},
    {"serve.job_run_mean_s", "s", "lower"},
    {"serve.jobs_retried", "count", "lower"},
    {"os.cpu_s", "s", "lower"},
    {"os.minor_faults", "count", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"probe.coverage_pct", "%", "higher"},
};

[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace rlccd::bench
