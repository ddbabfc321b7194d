// Worker-process supervisor: hard isolation for rollout workers.
//
// RolloutSupervisor::run forks one child per worker through the shared
// supervised-child primitive (common/child.h). The fork is copy-on-write, so
// a child sees the pristine netlist, the shared DesignGraph and its policy
// clone without any serialization; it computes its job's result bytes and
// sends them back as one result frame, heartbeating from a side thread while
// it works. The parent multiplexes every live pipe through one poll() loop;
// ChildProcess enforces the per-attempt SIGKILL deadline and the heartbeat
// timeout and classifies each reaped attempt. This file keeps only the
// rollout policy:
//
//   * each worker restarts on its own, up to max_restarts times, after the
//     shared retry_backoff_sec() wait keyed by (backoff_seed, worker,
//     restart) — a retried attempt re-runs the identical job, so a transient
//     crash leaves the surviving results bit-identical to a crash-free run;
//   * a child's trace events (ObsDelta frames) stitch into the parent
//     timeline;
//   * the worker_* fault points below.
//
// Fault points evaluated in the parent at each spawn keep injected chaos
// deterministic (hit counts live in one process, not eight):
//   worker_crash@H[:C[:W]]  child exits with code 3   (param: target worker)
//   worker_oom@H[:C[:W]]    child raises SIGKILL      (param: target worker)
//   pipe_truncate@H[:C[:W]] child truncates its result frame mid-payload
//   worker_hang@H[:C[:S]]   child wedges for S seconds (default 3600)
//                           without heartbeating
// For the first three, param selects the worker index the directive applies
// to (default 0; negative = any). Hit indices count spawn events, initial
// spawns in worker order first.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/child.h"

namespace rlccd {

struct SupervisorConfig {
  int workers = 1;
  // Per-attempt wall-clock deadline; <= 0 disables. Supersedes the
  // cooperative CancelToken watchdog: expiry is enforced with SIGKILL.
  double deadline_sec = 0.0;
  // Child heartbeat period; <= 0 disables heartbeating (and the timeout).
  double heartbeat_interval_sec = 0.25;
  // Silence longer than this (no heartbeat, no payload bytes) marks the
  // child wedged and kills it; <= 0 disables.
  double heartbeat_timeout_sec = 5.0;
  // Restarts allowed per worker per run(); attempts = max_restarts + 1.
  int max_restarts = 2;
  // Backoff before restart r is retry_backoff_sec(backoff_base_sec,
  // backoff_seed, worker, r): min(base * 2^r, 2 s) * (1 + u/2), u in [0, 1),
  // deterministic per (seed, worker, restart).
  double backoff_base_sec = 0.05;
  std::uint64_t backoff_seed = 1;
};

struct WorkerOutcome {
  bool completed = false;  // a whole result frame arrived
  std::string payload;     // the job's bytes (when completed)
  int attempts = 0;        // processes forked for this worker
  int kills = 0;           // SIGKILLs this worker's attempts received
  std::vector<double> backoff_sec;  // applied schedule, one per restart
  // Classification of the last failed attempt (kNone when attempt 1
  // succeeded).
  WorkerFailure last_failure = WorkerFailure::kNone;
  int exit_code = -1;   // valid when last_failure == kExit
  int term_signal = 0;  // valid when last_failure == kSignal / kTimeout
};

// Runs inside the forked child; returns the result payload. Everything it
// touches is the child's copy-on-write view of the parent at fork time.
using WorkerJob = std::function<std::string(int worker)>;

class RolloutSupervisor {
 public:
  explicit RolloutSupervisor(SupervisorConfig config);

  // True when the platform has fork(); the thread backend remains the
  // fallback elsewhere.
  static bool supported();

  // Forks, supervises and reaps one child per worker; blocks until every
  // worker either delivered a result or exhausted its restarts. Telemetry:
  // "train.worker_restarts", "train.worker_kills" count recovery actions.
  std::vector<WorkerOutcome> run(const WorkerJob& job);

 private:
  SupervisorConfig config_;
};

}  // namespace rlccd
