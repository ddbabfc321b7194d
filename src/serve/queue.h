// Bounded job queue with admission control, fair scheduling and shedding.
//
// The queue is the daemon's single source of truth for job state. It is
// deliberately single-threaded (the daemon's poll loop owns it), which
// keeps every transition atomic with respect to scheduling decisions:
//
//   * Admission — a submit is rejected with a concrete reason when the
//     global queue is full, the session's queued backlog is at its cap, or
//     the spec fails validation. A full queue first tries to shed: if some
//     queued job has strictly lower priority than the incoming one, the
//     lowest-priority (ties: youngest) queued job is evicted to make room —
//     overload degrades the least important work first, never silently.
//
//   * Scheduling — FIFO within a session, round-robin across sessions with
//     queued work (one chatty session cannot starve the rest), gated by the
//     per-session in-flight cap and, for retries, the backoff due time.
//
//   * Retry — a crashed attempt goes back to the *front* of its session's
//     queue (it was admitted long ago; new submits must not overtake it)
//     with a due time from the exponential-backoff schedule, and resumes
//     from its workspace checkpoints on the next attempt.
//
// Every admitted job ends terminal (done / failed / shed / cancelled /
// drained); JobQueue::assert_no_silent_jobs() is the invariant the soak
// test leans on.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace rlccd {
namespace serve {

struct QueueConfig {
  int max_queue_depth = 64;         // queued jobs across all sessions
  int max_queued_per_session = 32;  // queued jobs per session
  int max_inflight_per_session = 2; // running jobs per session
};

// Observability accumulated for one job attempt from the worker child's
// periodic ObsDelta frames: its newest trace events, stitched into the
// per-job Chrome trace on one pid row per attempt, whose tail becomes
// postmortem-<job>-<attempt>.json if the attempt dies without a result.
struct AttemptObs {
  int attempt = 0;  // 1-based, matches Job::attempts at spawn
  int pid = 0;
  double started_sec = 0.0;  // mono clock at fork
  double ended_sec = 0.0;    // mono clock at finalize; 0 while running
  std::string outcome;       // "done" / failure description once finished
  std::deque<CollectedTraceEvent> trace_events;  // oldest first
};

// One admitted job. Plain data owned by the JobQueue; the daemon reaches in
// freely (same thread).
struct Job {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  Session* session = nullptr;
  std::string workspace;  // <session dir>/job-<id>; ckpts/ lives inside

  int attempts = 0;     // worker processes forked so far
  int kills = 0;        // SIGKILLs (deadline / heartbeat / drain timeout)
  bool resume = false;  // next attempt resumes from workspace checkpoints
  bool cancel_requested = false;
  double submitted_sec = 0.0;  // mono clock
  double retry_due_sec = 0.0;  // kRetryWait: earliest redispatch
  int slot = -1;               // worker slot while kRunning

  JobResult result;    // valid for kDone / kDrained
  std::string detail;  // last progress line or failure reason
  std::vector<int> watchers;  // client fds streaming this job

  // Observability plane: one AttemptObs per forked attempt, and the
  // artifact paths once the daemon writes them (JobStatus carries both).
  std::vector<AttemptObs> attempt_obs;
  std::string postmortem_path;  // newest postmortem-<job>-<attempt>.json
  std::string trace_path;       // stitched trace-<job>.json

  [[nodiscard]] int priority() const { return spec.priority; }
};

class JobQueue {
 public:
  explicit JobQueue(QueueConfig config);

  // -- admission --------------------------------------------------------------

  struct Admission {
    bool accepted = false;
    Job* job = nullptr;        // when accepted
    Job* shed_victim = nullptr;  // non-null when a queued job was evicted;
                                 // already marked kShed — notify its watchers
    std::string reason;        // when rejected
  };

  // Admits `spec` for `session` at monotonic time `now_sec`. On acceptance
  // the job is queued (FIFO) and owned by the queue. `force_full` makes
  // admission behave as if the global queue were full (the
  // serve_queue_full fault point).
  Admission admit(const JobSpec& spec, Session* session, double now_sec,
                  bool force_full = false);

  // -- scheduling -------------------------------------------------------------

  // Next job to dispatch under fair scheduling, or null. The job is still
  // queued; the daemon calls mark_running() once the worker is forked.
  Job* next_runnable(double now_sec);
  // Earliest retry_due among queued retry jobs that are not yet runnable
  // (for the poll timeout); 0 when none.
  [[nodiscard]] double next_retry_due(double now_sec) const;

  void mark_running(Job* job, int slot);
  // Re-queues a crashed attempt at the front of its session's queue with a
  // backoff due time; the next attempt resumes from checkpoints.
  void requeue_for_retry(Job* job, double due_sec);
  // Moves a running job to `state` (kDone/kFailed/kDrained/kCancelled) and
  // releases its in-flight slot accounting.
  void finish_running(Job* job, JobState state);
  // Removes a *queued* job (kQueued or kRetryWait) from its session queue
  // and marks it `state` (kShed / kCancelled).
  void remove_queued(Job* job, JobState state);

  // -- queries ----------------------------------------------------------------

  [[nodiscard]] Job* find(std::uint64_t job_id);
  [[nodiscard]] int queued_depth() const { return queued_depth_; }
  [[nodiscard]] int running_count() const { return running_; }
  [[nodiscard]] const QueueConfig& config() const { return config_; }
  // Queued (not running) jobs in dispatch order, all sessions; for the
  // stats endpoint and for drain (shed everything still queued).
  [[nodiscard]] std::vector<Job*> queued_jobs();
  [[nodiscard]] std::vector<Job*> running_jobs();
  // Count of jobs currently in `state` (scans; stats-endpoint use).
  [[nodiscard]] int count_in_state(JobState state) const;
  // Dies (contract violation) when any job is in a non-terminal state.
  void assert_no_silent_jobs() const;

 private:
  Job* lowest_priority_queued();

  QueueConfig config_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  // Per-session FIFO of queued jobs, keyed by session pointer identity;
  // round-robin cursor over rr_sessions_.
  std::map<Session*, std::deque<Job*>> session_queues_;
  std::vector<Session*> rr_sessions_;
  std::size_t rr_cursor_ = 0;
  int queued_depth_ = 0;
  int running_ = 0;
};

}  // namespace serve
}  // namespace rlccd
