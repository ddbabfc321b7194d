#ifndef _WIN32

#include "serve/daemon.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/child.h"
#include "common/contracts.h"
#include "common/fault.h"
#include "common/io.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/postmortem.h"
#include "common/telemetry.h"
#include "common/telemetry_wire.h"
#include "common/trace.h"
#include "core/rlccd.h"
#include "designgen/blocks.h"
#include "rl/audit.h"
#include "rl/checkpoint.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/socket.h"

namespace rlccd {
namespace serve {

namespace {

// Jitter seed of the retry backoff (common/child.h), keyed by job id.
constexpr std::uint64_t kRetrySeed = 1;

// Trace events the daemon keeps per attempt (newest win), and how many of
// the newest a crash postmortem lists.
constexpr std::size_t kMaxAttemptEvents = 1u << 16;
constexpr std::size_t kPostmortemTail = 512;

// Connected clients the daemon serves at once; more are refused at accept.
constexpr int kMaxClients = 64;
// A client whose unsent output passes this bound is disconnected
// (backpressure: a stalled reader must not buffer the daemon into the
// ground).
constexpr std::size_t kClientOutbufLimit = 8u << 20;

// ===========================================================================
// Child side: one forked process per job attempt.
// ===========================================================================

// SIGTERM in a job child requests a cooperative drain: the trainer stops at
// the next iteration boundary (everything completed is checkpointed) and
// the child reports a resumable kDrained result.
CancelToken* g_child_cancel = nullptr;
void child_sigterm(int) {
  if (g_child_cancel != nullptr) g_child_cancel->cancel();
}

// Forwards trainer progress events over the pipe and implements the
// serve_worker_crash fault: _exit(3) right after the Nth checkpoint event,
// so the retried attempt provably resumes from a real checkpoint.
class ChildProgress : public ProgressObserver {
 public:
  ChildProgress(ChildPipe* pipe, int crash_after_checkpoints)
      : pipe_(pipe), crash_after_(crash_after_checkpoints) {}

  void on_event(const ProgressEvent& event) override {
    JobProgress p;
    p.phase.assign(event.phase.data(), event.phase.size());
    p.step.assign(event.step.data(), event.step.size());
    RLCCD_TRACE_INSTANT(p.phase + "/" + p.step);
    p.index = event.index;
    p.seconds = event.seconds;
    for (const ProgressMetric& m : event.metrics) {
      p.metrics.emplace_back(std::string(m.name), m.value);
    }
    std::string bytes;
    encode(bytes, p);
    // A failed write means the daemon is gone; the child keeps going and
    // its result is simply lost with it.
    (void)pipe_->send(static_cast<FrameType>(MsgType::kChildProgress), bytes);

    if (crash_after_ >= 1 && event.step == "checkpoint" &&
        ++checkpoints_ >= crash_after_) {
      _exit(3);  // injected crash: die with the checkpoint safely on disk
    }
  }

 private:
  ChildPipe* pipe_;
  int crash_after_;
  int checkpoints_ = 0;
};

// Forwards decision-provenance records as audit JSONL lines.
class ChildAudit : public AuditSink {
 public:
  explicit ChildAudit(ChildPipe* pipe) : pipe_(pipe) {}
  void on_rollout(const RolloutAuditRecord& r) override { line(r.to_json()); }
  void on_iteration(const IterationAuditRecord& r) override {
    line(r.to_json());
  }
  void on_flow(const FlowAuditRecord& r) override { line(r.to_json()); }

 private:
  void line(const std::string& json) {
    (void)pipe_->send(static_cast<FrameType>(MsgType::kChildAudit), json);
  }
  ChildPipe* pipe_;
};

// CRC-32 over the deterministic result payload: two runs of the same spec
// must agree bit-for-bit, crashed-and-resumed or not.
std::uint32_t result_digest(const TrainStats& stats) {
  std::string bytes;
  ipc_append_pod(bytes, static_cast<std::int32_t>(stats.iterations));
  ipc_append_pod(bytes, stats.best_tns);
  ipc_append_pod(bytes, stats.default_tns);
  for (PinId pin : stats.best_selection) ipc_append_pod(bytes, pin.value);
  return crc32(bytes);
}

// Runs one job attempt in the forked child; returns the encoded JobResult.
std::string run_job_child(const Job& job, const ServeConfig& cfg,
                          ChildPipe& pipe, bool crash, int crash_after) {
  static CancelToken cancel;
  g_child_cancel = &cancel;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = child_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGINT, SIG_IGN);  // only the daemon's drain stops job children

  if (crash && crash_after <= 0) _exit(3);  // crash before any work

  // Child-side observability plane: a fresh trace ring (the parent's
  // buffer, inherited over fork, is its own story) whose span closes and
  // instants (attempt start/done, each progress step) feed both the
  // stitched job trace and a crash postmortem, and a telemetry tracker
  // baselined *now* so registry values inherited from the parent are never
  // re-shipped. The heartbeat thread ships an ObsDelta alongside each
  // heartbeat; a final flush precedes the result frame. Audit lines reach
  // the daemon as kChildAudit frames and log lines on the shared stderr.
  TraceRecorder::global().enable(4096);
  TelemetryDeltaTracker obs_tracker;
  TraceCursor obs_trace_cursor;
  std::uint64_t obs_seq = 0;
  auto ship_obs = [&] {
    // The Heartbeat runs this on one thread at a time (its final flush
    // after joining its thread), so the cursor needs no lock.
    ObsDelta d;
    d.seq = ++obs_seq;
    d.source_pid = static_cast<std::int32_t>(::getpid());
    d.telemetry = obs_tracker.take();
    TraceRecorder::global().collect_since(obs_trace_cursor, d.trace_events);
    if (d.telemetry.counters.empty() && d.telemetry.gauges.empty() &&
        d.telemetry.histograms.empty() && d.telemetry.spans.children.empty() &&
        d.trace_events.empty()) {
      return;  // nothing new since the last ship
    }
    (void)pipe.send(FrameType::kTelemetry, d.encode());
  };
  RLCCD_TRACE_INSTANT("attempt start");

  // Destroyed on return, so its final flush precedes the result frame:
  // nothing recorded is lost on a clean exit.
  Heartbeat beat(pipe, cfg.heartbeat_interval_sec, ship_obs);
  JobResult result;
  if (job.spec.kind == JobKind::kNoop) {
    // Spanned so even a noop attempt lands one trace event on its pid row.
    RLCCD_SPAN("noop");
    const double until = mono_sec() + std::max(0.0, job.spec.noop_sec);
    while (mono_sec() < until && !cancel.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    result.drained = cancel.expired() && mono_sec() < until;
    std::string bytes = "noop:" + std::to_string(job.spec.seed);
    result.digest = crc32(bytes);
    result.detail = result.drained ? "noop drained" : "noop done";
  } else {
    ChildProgress progress(&pipe, crash ? crash_after : -1);
    ChildAudit audit(&pipe);

    Design design = generate_design(
        to_generator_config(find_block(job.spec.block), job.spec.scale));
    RlCcdConfig rc = RlCcdConfig::for_design(design);
    rc.train.max_iterations = job.spec.iters;
    rc.train.patience = job.spec.iters;  // fixed-length, like smoke_rl
    rc.train.workers = job.spec.rollout_workers;
    rc.train.seed = job.spec.seed;
    rc.train.checkpoint_dir = job.workspace + "/ckpts";
    rc.train.resume = job.resume;
    rc.train.cancel = &cancel;
    rc.train.observer = &progress;
    rc.train.audit = &audit;

    Policy policy(rc.policy, rc.policy_seed);
    ReinforceTrainer trainer(&design, &policy, rc.train);
    TrainStats stats = trainer.train();

    result.drained = cancel.expired() && stats.iterations < job.spec.iters;
    result.iterations = stats.iterations;
    result.best_tns = stats.best_tns;
    result.default_tns = stats.default_tns;
    result.selection_size = stats.best_selection.size();
    result.digest = result_digest(stats);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s at %d/%d iters, best_tns=%.3f",
                  result.drained ? "drained" : "trained", stats.iterations,
                  job.spec.iters, stats.best_tns);
    result.detail = buf;
  }
  RLCCD_TRACE_INSTANT("attempt done");
  std::string bytes;
  encode(bytes, result);
  return bytes;
}

// ===========================================================================
// Daemon side.
// ===========================================================================

struct ClientConn {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbuf;  // unsent frame bytes (nonblocking fd)
  bool dead = false;   // scheduled for drop at the end of the loop pass
};

struct WorkerSlot {
  ChildProcess child;  // running() while the slot holds a job attempt
  Job* job = nullptr;
};

void json_kv(std::string& out, const char* key, std::uint64_t v,
             bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%llu%s", key,
                static_cast<unsigned long long>(v), comma ? "," : "");
  out += buf;
}

}  // namespace

// The whole event loop lives in one stack-allocated struct so run() has no
// heap-lifetime subtleties and tests can drive a daemon per test case.
struct DaemonLoop {
  ServeDaemon& d;
  const ServeConfig& cfg;
  SessionRegistry sessions;
  JobQueue queue;
  std::map<int, ClientConn> clients;
  std::vector<WorkerSlot> slots;
  bool draining = false;
  double drain_deadline = 0.0;
  double started = mono_sec();
  int exit_code = 0;

  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& ctr_submitted = reg.counter("serve.jobs_submitted");
  MetricsCounter& ctr_rejected = reg.counter("serve.jobs_rejected");
  MetricsCounter& ctr_done = reg.counter("serve.jobs_done");
  MetricsCounter& ctr_failed = reg.counter("serve.jobs_failed");
  MetricsCounter& ctr_retried = reg.counter("serve.jobs_retried");
  MetricsCounter& ctr_shed = reg.counter("serve.jobs_shed");
  MetricsCounter& ctr_cancelled = reg.counter("serve.jobs_cancelled");
  MetricsCounter& ctr_drained = reg.counter("serve.jobs_drained");
  MetricsCounter& ctr_kills = reg.counter("serve.jobs_killed");
  MetricsCounter& ctr_accepted = reg.counter("serve.clients_accepted");
  MetricsCounter& ctr_dropped = reg.counter("serve.clients_dropped");
  MetricsCounter& ctr_accept_fail = reg.counter("serve.accept_failures");
  MetricsCounter& ctr_forced_full = reg.counter("serve.queue_full_injected");
  MetricsCounter& ctr_obs_merged = reg.counter("serve.obs_deltas_merged");
  MetricsCounter& ctr_obs_errors = reg.counter("serve.obs_delta_errors");
  MetricsCounter& ctr_postmortems = reg.counter("serve.postmortems_written");
  MetricsCounter& ctr_traces = reg.counter("serve.traces_written");
  MetricsHistogram& hist_wait = reg.histogram("serve.queue_wait_sec");
  MetricsHistogram& hist_run = reg.histogram("serve.job_run_sec");
  MetricsGauge& g_queue_depth = reg.gauge("serve.queue_depth");
  MetricsGauge& g_jobs_running = reg.gauge("serve.jobs_running");
  MetricsGauge& g_retry_wait = reg.gauge("serve.jobs_retry_wait");
  MetricsGauge& g_clients = reg.gauge("serve.clients_connected");
  MetricsGauge& g_watchers = reg.gauge("serve.stats_watchers");

  // kStatsWatch subscribers (client fds) and the next scheduled push.
  std::vector<int> stats_watchers;
  double next_stats_push = 0.0;

  explicit DaemonLoop(ServeDaemon& daemon)
      : d(daemon),
        cfg(daemon.config_),
        sessions(daemon.config_.root_dir),
        queue(daemon.config_.queue),
        slots(static_cast<std::size_t>(std::max(1, cfg.workers))) {}

  // -- client output ----------------------------------------------------------

  void send_msg(ClientConn& c, MsgType type, std::string_view payload) {
    if (c.dead) return;
    ipc_append_frame(c.outbuf, static_cast<std::uint8_t>(type), payload);
    flush_client(c);
    if (c.outbuf.size() > kClientOutbufLimit) {
      RLCCD_LOG_WARN("serve: client fd %d over outbuf limit (%zu bytes); "
                     "dropping (backpressure)",
                     c.fd, c.outbuf.size());
      c.dead = true;
    }
  }

  void flush_client(ClientConn& c) {
    while (!c.outbuf.empty()) {
      const ssize_t w = ::write(c.fd, c.outbuf.data(), c.outbuf.size());
      if (w > 0) {
        c.outbuf.erase(0, static_cast<std::size_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      c.dead = true;  // EPIPE/ECONNRESET: the peer is gone
      return;
    }
  }

  void send_error(ClientConn& c, const std::string& message) {
    send_msg(c, MsgType::kError, message);
  }

  void drop_client(int fd) {
    auto it = clients.find(fd);
    if (it == clients.end()) return;
    ::close(fd);
    clients.erase(it);
    ctr_dropped.increment();
    for (Job* job : queue.queued_jobs()) forget_watcher(job, fd);
    for (Job* job : queue.running_jobs()) forget_watcher(job, fd);
    stats_watchers.erase(
        std::remove(stats_watchers.begin(), stats_watchers.end(), fd),
        stats_watchers.end());
  }

  static void forget_watcher(Job* job, int fd) {
    auto& w = job->watchers;
    w.erase(std::remove(w.begin(), w.end(), fd), w.end());
  }

  // -- job status fan-out -----------------------------------------------------

  JobStatus status_of(const Job& job) {
    JobStatus s;
    s.job_id = job.id;
    s.state = job.state;
    s.session = job.session->name;
    s.kind = job.spec.kind;
    s.attempts = job.attempts;
    s.iterations = job.result.iterations;
    s.best_tns = job.result.best_tns;
    s.default_tns = job.result.default_tns;
    s.selection_size = job.result.selection_size;
    s.result_digest = job.result.digest;
    s.detail = job.detail;
    s.postmortem = job.postmortem_path;
    s.trace = job.trace_path;
    return s;
  }

  void notify_watchers(Job* job) {
    if (job->watchers.empty()) return;
    std::string bytes;
    encode(bytes, status_of(*job));
    for (int fd : job->watchers) {
      auto it = clients.find(fd);
      if (it != clients.end()) send_msg(it->second, MsgType::kJobStatus, bytes);
    }
    if (job_state_terminal(job->state)) job->watchers.clear();
  }

  void relay_to_watchers(Job* job, MsgType type, std::string_view payload) {
    for (int fd : job->watchers) {
      auto it = clients.find(fd);
      if (it != clients.end()) send_msg(it->second, type, payload);
    }
  }

  // -- admission --------------------------------------------------------------

  void handle_submit(ClientConn& c, std::string_view payload) {
    SubmitReply reply;
    JobSpec spec;
    Status parsed = parse(payload, spec);
    std::string why;
    if (!parsed.ok()) {
      why = parsed.to_string();
    } else if (draining) {
      why = "daemon is draining; not accepting jobs";
    } else if (!valid_session_name(spec.session)) {
      why = "invalid session name \"" + spec.session + "\"";
    } else if (spec.kind == JobKind::kTrain && !block_known(spec.block)) {
      why = "unknown block \"" + spec.block + "\"";
    } else if (spec.kind == JobKind::kTrain &&
               !(spec.scale > 0.0 && spec.scale <= 1.0)) {
      why = "scale must be in (0, 1]";
    } else if (spec.kind == JobKind::kTrain &&
               (spec.iters < 1 || spec.iters > 10000)) {
      why = "iters must be in [1, 10000]";
    } else if (spec.kind == JobKind::kTrain &&
               (spec.rollout_workers < 1 || spec.rollout_workers > 64)) {
      why = "rollout_workers must be in [1, 64]";
    }

    if (why.empty()) {
      Status swhy;
      Session* session = sessions.open(spec.session, &swhy);
      if (session == nullptr) {
        why = swhy.to_string();
      } else {
        bool force_full = false;
        if (fault_fire("serve_queue_full")) {
          force_full = true;
          ctr_forced_full.increment();
        }
        JobQueue::Admission adm =
            queue.admit(spec, session, mono_sec(), force_full);
        if (adm.shed_victim != nullptr) {
          ctr_shed.increment();
          RLCCD_LOG_WARN("serve: shed job %llu (priority %d) for a "
                         "priority-%d submit",
                         static_cast<unsigned long long>(adm.shed_victim->id),
                         adm.shed_victim->priority(), spec.priority);
          notify_watchers(adm.shed_victim);
        }
        if (adm.accepted) {
          ctr_submitted.increment();
          adm.job->detail = "queued";
          reply.accepted = true;
          reply.job_id = adm.job->id;
          RLCCD_LOG_INFO("serve: job %llu admitted (session=%s kind=%s "
                         "priority=%d depth=%d)",
                         static_cast<unsigned long long>(adm.job->id),
                         spec.session.c_str(), job_kind_name(spec.kind),
                         spec.priority, queue.queued_depth());
        } else {
          why = adm.reason;
        }
      }
    }
    if (!reply.accepted) {
      ctr_rejected.increment();
      reply.reason = why;
      RLCCD_LOG_WARN("serve: submit rejected: %s", why.c_str());
    }
    std::string bytes;
    encode(bytes, reply);
    send_msg(c, MsgType::kSubmitReply, bytes);
  }

  // -- per-frame dispatch -----------------------------------------------------

  void handle_frame(ClientConn& c, const Frame& frame) {
    const MsgType type = static_cast<MsgType>(frame.type);
    switch (type) {
      case MsgType::kHello: {
        Hello hello;
        if (!parse(frame.payload, hello).ok() ||
            hello.version != kProtocolVersion) {
          send_error(c, "protocol version mismatch (daemon speaks v" +
                            std::to_string(kProtocolVersion) + ")");
          c.dead = true;
          return;
        }
        HelloReply reply;
        reply.daemon_pid = static_cast<std::uint64_t>(::getpid());
        std::string bytes;
        encode(bytes, reply);
        send_msg(c, MsgType::kHelloReply, bytes);
        break;
      }
      case MsgType::kSubmit:
        handle_submit(c, frame.payload);
        break;
      case MsgType::kPoll:
      case MsgType::kWatch: {
        JobRef ref;
        if (!parse(frame.payload, ref).ok()) {
          send_error(c, "malformed job ref");
          return;
        }
        Job* job = queue.find(ref.job_id);
        if (job == nullptr) {
          send_error(c, "unknown job " + std::to_string(ref.job_id));
          return;
        }
        if (type == MsgType::kWatch && !job_state_terminal(job->state)) {
          if (std::find(job->watchers.begin(), job->watchers.end(), c.fd) ==
              job->watchers.end()) {
            job->watchers.push_back(c.fd);
          }
        }
        std::string bytes;
        encode(bytes, status_of(*job));
        send_msg(c, MsgType::kJobStatus, bytes);
        break;
      }
      case MsgType::kCancel: {
        JobRef ref;
        if (!parse(frame.payload, ref).ok()) {
          send_error(c, "malformed job ref");
          return;
        }
        Job* job = queue.find(ref.job_id);
        if (job == nullptr) {
          send_error(c, "unknown job " + std::to_string(ref.job_id));
          return;
        }
        cancel_job(job);
        std::string bytes;
        encode(bytes, status_of(*job));
        send_msg(c, MsgType::kJobStatus, bytes);
        break;
      }
      case MsgType::kStats:
        update_gauges();
        send_msg(c, MsgType::kStatsReply, stats_json());
        break;
      case MsgType::kStatsWatch: {
        // Subscribe to the streamed stats feed: one immediate snapshot,
        // then periodic pushes until the client disconnects.
        if (std::find(stats_watchers.begin(), stats_watchers.end(), c.fd) ==
            stats_watchers.end()) {
          stats_watchers.push_back(c.fd);
        }
        update_gauges();
        send_msg(c, MsgType::kStatsReply, stats_json());
        next_stats_push = mono_sec() + cfg.stats_push_interval_sec;
        break;
      }
      case MsgType::kMetrics:
        update_gauges();
        send_msg(c, MsgType::kMetricsReply, reg.to_prometheus());
        break;
      case MsgType::kShutdown: {
        send_msg(c, MsgType::kShutdownReply, {});
        RLCCD_LOG_INFO("serve: shutdown requested by client fd %d", c.fd);
        begin_drain();
        break;
      }
      default:
        send_error(c, std::string("unexpected message type ") +
                          msg_type_name(type));
        break;
    }

    if (fault_fire("serve_client_disconnect")) {
      RLCCD_LOG_WARN("serve: injected client disconnect (fd %d)", c.fd);
      c.dead = true;
    }
  }

  void cancel_job(Job* job) {
    if (job_state_terminal(job->state)) return;
    job->cancel_requested = true;
    if (job->state == JobState::kRunning) {
      // The child drains at its next iteration boundary; finalize turns the
      // drained result into kCancelled.
      ::kill(slots[static_cast<std::size_t>(job->slot)].child.pid(), SIGTERM);
      return;
    }
    queue.remove_queued(job, JobState::kCancelled);
    job->detail = "cancelled while queued";
    ctr_cancelled.increment();
    notify_watchers(job);
  }

  // -- worker lifecycle -------------------------------------------------------

  int free_slot() const {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].child.running()) return static_cast<int>(i);
    }
    return -1;
  }

  void dispatch_jobs() {
    if (draining) return;
    for (;;) {
      const int slot = free_slot();
      if (slot < 0) return;
      Job* job = queue.next_runnable(mono_sec());
      if (job == nullptr) return;
      spawn(job, slot);
    }
  }

  // A job whose attempt could not start ends failed with `detail`.
  void fail_to_start(Job* job, int slot_index, std::string detail) {
    queue.mark_running(job, slot_index);  // keep state accounting uniform
    queue.finish_running(job, JobState::kFailed);
    job->detail = std::move(detail);
    ctr_failed.increment();
    notify_watchers(job);
  }

  void spawn(Job* job, int slot_index) {
    const double now = mono_sec();
    hist_wait.record(std::max(0.0, now - (job->state == JobState::kRetryWait
                                              ? job->retry_due_sec
                                              : job->submitted_sec)));
    Status made = make_dirs(job->workspace + "/ckpts");
    if (!made.ok()) {
      fail_to_start(job, slot_index, "workspace: " + made.to_string());
      return;
    }

    // Fault directives are decided here, in the daemon, so hit counting is
    // global and deterministic (a forked child would re-count hits in its
    // own copy of the injector on every retry).
    double crash_param = 0.0;
    const bool crash = fault_fire("serve_worker_crash", &crash_param);

    WorkerSlot& s = slots[static_cast<std::size_t>(slot_index)];
    const double deadline = job->spec.deadline_sec > 0.0
                                ? job->spec.deadline_sec
                                : cfg.job_deadline_sec;
    const double silence =
        cfg.heartbeat_interval_sec > 0.0 ? cfg.heartbeat_timeout_sec : 0.0;
    const Status started =
        s.child.spawn(deadline, silence, [&](ChildPipe& pipe) {
          // Child: drop every daemon fd (fork copies them all; no exec
          // follows, so FD_CLOEXEC does not help) and run the job.
          ::close(d.listen_fd_);
          ::close(d.stop_read_fd_);
          ::close(d.stop_write_fd_);
          for (auto& [fd, conn] : clients) ::close(fd);
          for (const WorkerSlot& other : slots) {
            if (other.child.fd() >= 0) ::close(other.child.fd());
          }
          return run_job_child(*job, cfg, pipe, crash,
                               static_cast<int>(crash_param));
        });
    if (!started.ok()) {
      fail_to_start(job, slot_index, started.message());
      return;
    }
    s.job = job;

    queue.mark_running(job, slot_index);
    AttemptObs obs;
    obs.attempt = job->attempts;
    obs.pid = s.child.pid();
    obs.started_sec = s.child.started();
    job->attempt_obs.push_back(std::move(obs));
    job->detail = "running (attempt " + std::to_string(job->attempts) + ")";
    RLCCD_LOG_INFO("serve: job %llu attempt %d -> slot %d (pid %d%s%s)",
                   static_cast<unsigned long long>(job->id), job->attempts,
                   slot_index, s.child.pid(), job->resume ? ", resume" : "",
                   crash ? ", crash injected" : "");
    notify_watchers(job);
  }

  // Relays a job child's progress and audit frames to the job's watchers
  // and keeps its ObsDeltas; any other frame type is a protocol error.
  void drain_worker_pipe(int slot_index) {
    WorkerSlot& s = slots[static_cast<std::size_t>(slot_index)];
    Job* job = s.job;
    const bool ended = s.child.drain([&](const Frame& frame) {
      switch (frame.type) {
        case static_cast<std::uint8_t>(MsgType::kChildProgress): {
          JobProgress p;
          if (parse(frame.payload, p).ok()) {
            p.job_id = job->id;
            job->detail = p.phase + "/" + p.step +
                          (p.index >= 0 ? " #" + std::to_string(p.index) : "");
            std::string bytes;
            encode(bytes, p);
            relay_to_watchers(job, MsgType::kProgress, bytes);
          }
          return true;
        }
        case static_cast<std::uint8_t>(MsgType::kChildAudit): {
          std::string bytes;
          encode(bytes, JobAudit{job->id, frame.payload});
          relay_to_watchers(job, MsgType::kAudit, bytes);
          return true;
        }
        case static_cast<std::uint8_t>(FrameType::kTelemetry): {
          // An ObsDelta from the child: merge the telemetry delta into the
          // global registry and accumulate the trace events on the attempt.
          // A frame that fails to decode is dropped whole — a torn or
          // corrupt delta can never half-apply.
          ObsDelta d;
          if (!d.decode(frame.payload).ok()) {
            ctr_obs_errors.increment();
            return true;
          }
          reg.merge_delta(d.telemetry);
          ctr_obs_merged.increment();
          if (!job->attempt_obs.empty()) {
            AttemptObs& obs = job->attempt_obs.back();
            // Bounded accumulation: a runaway child must not balloon the
            // daemon. The newest events win, since a postmortem wants the
            // *last* things the child did.
            for (auto& ev : d.trace_events) {
              obs.trace_events.push_back(std::move(ev));
              if (obs.trace_events.size() > kMaxAttemptEvents) {
                obs.trace_events.pop_front();
              }
            }
          }
          return true;
        }
        default:
          return false;
      }
    });
    if (ended) finalize_worker(slot_index);
  }

  void finalize_worker(int slot_index) {
    WorkerSlot& s = slots[static_cast<std::size_t>(slot_index)];
    const double started = s.child.started();
    ChildProcess::Exit ex = s.child.reap();
    Job* job = s.job;
    s.job = nullptr;

    const double now = mono_sec();
    hist_run.record(now - started);
    if (!job->attempt_obs.empty()) job->attempt_obs.back().ended_sec = now;

    JobResult result;
    if (ex.exit.failure == WorkerFailure::kNone &&
        !parse(ex.result, result).ok()) {
      ex.exit = WorkerExit{WorkerFailure::kProtocol};
      ex.detail = "malformed result frame";
    }
    const WorkerExit& cls = ex.exit;
    if (cls.failure == WorkerFailure::kNone) {
      job->result = result;
      job->detail = result.detail;
      if (job->cancel_requested) {
        queue.finish_running(job, JobState::kCancelled);
        ctr_cancelled.increment();
      } else if (result.drained) {
        // Stopped at a checkpoint by the drain SIGTERM; a future daemon can
        // resume this job's workspace bit-identically.
        queue.finish_running(job, JobState::kDrained);
        ctr_drained.increment();
      } else {
        queue.finish_running(job, JobState::kDone);
        ctr_done.increment();
      }
      if (!job->attempt_obs.empty()) {
        job->attempt_obs.back().outcome = job_state_name(job->state);
      }
      write_job_trace(job, now);
      RLCCD_LOG_INFO("serve: job %llu %s (%s)",
                     static_cast<unsigned long long>(job->id),
                     job_state_name(job->state), job->detail.c_str());
      notify_watchers(job);
      return;
    }

    const bool killed = cls.failure == WorkerFailure::kTimeout;
    char desc[160];
    std::snprintf(desc, sizeof(desc), "%s%s%s (exit=%d signal=%d)",
                  worker_failure_name(cls.failure),
                  ex.detail.empty() ? "" : ": ", ex.detail.c_str(),
                  cls.exit_code, cls.term_signal);
    job->kills += killed ? 1 : 0;
    if (!job->attempt_obs.empty()) job->attempt_obs.back().outcome = desc;
    // Every attempt that dies without a result gets a forensic record: the
    // crash classification plus the last trace events the child shipped.
    write_postmortem(job, cls, now - started);

    if (job->cancel_requested) {
      job->detail = std::string("cancelled: ") + desc;
      queue.finish_running(job, JobState::kCancelled);
      ctr_cancelled.increment();
      write_job_trace(job, now);
      notify_watchers(job);
      return;
    }
    if (!draining && job->attempts <= cfg.job_retries) {
      // Retry from the newest checkpoint with exponential backoff plus
      // deterministic per-job jitter.
      const double delay = retry_backoff_sec(
          cfg.retry_backoff_base_sec, kRetrySeed, job->id, job->attempts - 1);
      queue.requeue_for_retry(job, now + delay);
      ctr_retried.increment();
      std::string resume_point = "scratch";
      if (job->spec.kind == JobKind::kTrain) {
        std::string path;
        int iters = 0;
        if (newest_checkpoint(job->workspace + "/ckpts", path, &iters).ok()) {
          resume_point = "checkpoint @" + std::to_string(iters);
        }
      }
      job->detail = std::string("retrying after ") + desc + " (from " +
                    resume_point + ")";
      RLCCD_LOG_WARN("serve: job %llu attempt %d failed (%s); retry %d in "
                     "%.0f ms from %s",
                     static_cast<unsigned long long>(job->id), job->attempts,
                     desc, job->attempts, delay * 1e3, resume_point.c_str());
      notify_watchers(job);
      return;
    }
    job->detail = draining && killed
                      ? std::string("failed: drain deadline forced SIGKILL")
                      : std::string("failed: ") + desc +
                            (draining ? " (during drain)" : ", retries exhausted");
    queue.finish_running(job, JobState::kFailed);
    ctr_failed.increment();
    write_job_trace(job, now);
    RLCCD_LOG_ERROR("serve: job %llu lost after %d attempts (%s)",
                    static_cast<unsigned long long>(job->id), job->attempts,
                    desc);
    notify_watchers(job);
  }

  // -- observability artifacts ------------------------------------------------

  void write_postmortem(Job* job, const WorkerExit& cls, double wall_sec) {
    if (job->attempt_obs.empty()) return;
    const AttemptObs& obs = job->attempt_obs.back();
    PostmortemReport rep;
    rep.job = std::to_string(job->id);
    rep.attempt = obs.attempt;
    rep.pid = obs.pid;
    rep.classification = worker_failure_name(cls.failure);
    rep.exit_code = cls.exit_code;
    rep.term_signal = cls.term_signal;
    rep.wall_sec = wall_sec;
    const std::size_t tail =
        std::min(obs.trace_events.size(), kPostmortemTail);
    rep.events.assign(obs.trace_events.end() -
                          static_cast<std::ptrdiff_t>(tail),
                      obs.trace_events.end());
    const std::string path = job->workspace + "/postmortem-" +
                             std::to_string(job->id) + "-" +
                             std::to_string(obs.attempt) + ".json";
    Status ws = write_postmortem_json(path, rep);
    if (!ws.ok()) {
      RLCCD_LOG_WARN("serve: postmortem %s: %s", path.c_str(),
                     ws.to_string().c_str());
      return;
    }
    job->postmortem_path = path;
    ctr_postmortems.increment();
    RLCCD_LOG_INFO("serve: job %llu attempt %d postmortem -> %s (%zu trace "
                   "events)",
                   static_cast<unsigned long long>(job->id), obs.attempt,
                   path.c_str(), rep.events.size());
  }

  // Stitches every attempt's shipped trace events into one Chrome trace:
  // the daemon's row carries a "job <id>" span covering submission to
  // finalization, and each attempt's events land on its own pid row (named
  // with the attempt number and outcome), so a crashed-and-retried job
  // reads as two side-by-side process timelines.
  void write_job_trace(Job* job, double now) {
    if (job->attempt_obs.empty()) return;
    const double t0 = job->submitted_sec;
    const int daemon_pid = static_cast<int>(::getpid());
    std::string out = "{\"traceEvents\":[";
    append_chrome_process_name(out, daemon_pid, "daemon");
    out += ',';
    append_chrome_event(out, "job " + std::to_string(job->id), 0.0,
                        (now - t0) * 1e6, daemon_pid, 0);
    for (const AttemptObs& a : job->attempt_obs) {
      char label[160];
      std::snprintf(label, sizeof(label), "attempt %d%s%s", a.attempt,
                    a.outcome.empty() ? "" : ": ", a.outcome.c_str());
      out += ',';
      append_chrome_process_name(out, a.pid, label);
      const double end = a.ended_sec > 0.0 ? a.ended_sec : now;
      out += ',';
      append_chrome_event(out, "attempt", (a.started_sec - t0) * 1e6,
                          std::max(0.0, end - a.started_sec) * 1e6, a.pid, 0);
      for (const CollectedTraceEvent& ev : a.trace_events) {
        out += ',';
        append_chrome_event(out, ev.name, (ev.start_sec - t0) * 1e6,
                            ev.dur_sec < 0.0 ? -1.0 : ev.dur_sec * 1e6, a.pid,
                            ev.tid);
      }
    }
    out += "]}\n";
    const std::string path =
        job->workspace + "/trace-" + std::to_string(job->id) + ".json";
    Status ws = atomic_write_file(path, out);
    if (!ws.ok()) {
      RLCCD_LOG_WARN("serve: trace %s: %s", path.c_str(),
                     ws.to_string().c_str());
      return;
    }
    job->trace_path = path;
    ctr_traces.increment();
  }

  // -- timeouts, drain --------------------------------------------------------

  // Counts a SIGKILL the slot's ChildProcess just sent. The EOF that
  // follows finalizes and classifies the attempt.
  void note_kill(std::size_t slot_index, const char* reason) {
    const WorkerSlot& s = slots[slot_index];
    ctr_kills.increment();
    RLCCD_LOG_WARN("serve: job %llu (slot %zu, pid %d): %s; sent SIGKILL",
                   static_cast<unsigned long long>(s.job->id), slot_index,
                   s.child.pid(), reason);
  }

  void check_timeouts(double now) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].child.running()) continue;
      if (const char* reason = slots[i].child.enforce(now)) {
        note_kill(i, reason);
      }
    }
    if (draining && drain_deadline > 0.0 && now > drain_deadline) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].child.kill("drain deadline")) {
          note_kill(i, "drain deadline");
          exit_code = 1;
        }
      }
      drain_deadline = 0.0;  // fire once
    }
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline =
        cfg.drain_timeout_sec > 0.0 ? mono_sec() + cfg.drain_timeout_sec : 0.0;
    const std::vector<Job*> queued = queue.queued_jobs();
    RLCCD_LOG_INFO("serve: draining (%zu queued to shed, %d running to stop)",
                   queued.size(), queue.running_count());
    for (Job* job : queued) {
      queue.remove_queued(job, JobState::kShed);
      job->session->shed += 1;
      job->detail = "shed: daemon draining";
      ctr_shed.increment();
      notify_watchers(job);
    }
    for (WorkerSlot& s : slots) {
      // Stop at an iteration boundary.
      if (s.child.running()) ::kill(s.child.pid(), SIGTERM);
    }
  }

  [[nodiscard]] bool drained() const {
    return draining && queue.running_count() == 0 && queue.queued_depth() == 0;
  }

  // -- health / stats endpoint ------------------------------------------------

  std::string stats_json() {
    std::string out = "{";
    json_kv(out, "pid", static_cast<std::uint64_t>(::getpid()));
    json_kv(out, "protocol", kProtocolVersion);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"uptime_sec\":%.3f,\"draining\":%s,",
                  mono_sec() - started, draining ? "true" : "false");
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"queue\":{\"depth\":%d,\"running\":%d,\"max_depth\":%d,"
                  "\"workers\":%zu},",
                  queue.queued_depth(), queue.running_count(),
                  queue.config().max_queue_depth, slots.size());
    out += buf;
    out += "\"jobs\":{";
    json_kv(out, "submitted", ctr_submitted.value());
    json_kv(out, "rejected", ctr_rejected.value());
    json_kv(out, "done", ctr_done.value());
    json_kv(out, "failed", ctr_failed.value());
    json_kv(out, "retried", ctr_retried.value());
    json_kv(out, "shed", ctr_shed.value());
    json_kv(out, "cancelled", ctr_cancelled.value());
    json_kv(out, "drained", ctr_drained.value());
    json_kv(out, "killed", ctr_kills.value(), /*comma=*/false);
    out += "},\"workers\":[";
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const WorkerSlot& s = slots[i];
      const bool busy = s.child.running();
      if (i > 0) out += ",";
      std::snprintf(buf, sizeof(buf),
                    "{\"slot\":%zu,\"busy\":%s,\"pid\":%d,\"job\":%llu,"
                    "\"phase\":\"",
                    i, busy ? "true" : "false", s.child.pid(),
                    busy ? static_cast<unsigned long long>(s.job->id) : 0ull);
      out += buf;
      json_escape(out, busy ? s.job->detail : "idle");
      out += "\"}";
    }
    out += "],\"sessions\":[";
    bool first = true;
    for (const auto& session : sessions.all()) {
      if (!first) out += ",";
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"queued\":%d,\"inflight\":%d,"
                    "\"submitted\":%llu,\"done\":%llu,\"failed\":%llu,"
                    "\"shed\":%llu}",
                    session->name.c_str(), session->queued, session->inflight,
                    static_cast<unsigned long long>(session->submitted),
                    static_cast<unsigned long long>(session->done),
                    static_cast<unsigned long long>(session->failed),
                    static_cast<unsigned long long>(session->shed));
      out += buf;
    }
    out += "],\"counters\":{";
    json_kv(out, "serve.jobs_retried", ctr_retried.value());
    json_kv(out, "serve.jobs_killed", ctr_kills.value());
    json_kv(out, "serve.clients_accepted", ctr_accepted.value());
    json_kv(out, "serve.clients_dropped", ctr_dropped.value());
    json_kv(out, "serve.accept_failures", ctr_accept_fail.value());
    json_kv(out, "serve.queue_full_injected", ctr_forced_full.value());
    json_kv(out, "serve.obs_deltas_merged", ctr_obs_merged.value());
    json_kv(out, "serve.obs_delta_errors", ctr_obs_errors.value());
    json_kv(out, "serve.postmortems_written", ctr_postmortems.value());
    json_kv(out, "serve.traces_written", ctr_traces.value(), /*comma=*/false);
    out += "},\"gauges\":{";
    json_kv(out, "serve.queue_depth",
            static_cast<std::uint64_t>(queue.queued_depth()));
    json_kv(out, "serve.jobs_running",
            static_cast<std::uint64_t>(queue.running_count()));
    json_kv(out, "serve.jobs_retry_wait",
            static_cast<std::uint64_t>(
                queue.count_in_state(JobState::kRetryWait)));
    json_kv(out, "serve.clients_connected",
            static_cast<std::uint64_t>(clients.size()));
    json_kv(out, "serve.stats_watchers",
            static_cast<std::uint64_t>(stats_watchers.size()),
            /*comma=*/false);
    out += "},";
    // Retry/backoff state: how many jobs sit out a backoff and when the
    // next one becomes runnable.
    const double now2 = mono_sec();
    const double due = queue.next_retry_due(now2);
    std::snprintf(buf, sizeof(buf),
                  "\"retry\":{\"waiting\":%d,\"next_due_in_sec\":%.3f},",
                  queue.count_in_state(JobState::kRetryWait),
                  due > 0.0 ? std::max(0.0, due - now2) : -1.0);
    out += buf;
    // Rollout evaluation cache, merged up from every job child's deltas.
    const std::uint64_t hits = reg.counter("train.cache_hits").value();
    const std::uint64_t misses = reg.counter("train.cache_misses").value();
    std::snprintf(buf, sizeof(buf),
                  "\"cache\":{\"hits\":%llu,\"misses\":%llu,"
                  "\"hit_rate\":%.4f},",
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(misses),
                  hits + misses > 0
                      ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0);
    out += buf;
    out += "\"histograms\":{";
    bool first_h = true;
    for (const char* name : {"serve.queue_wait_sec", "serve.job_run_sec"}) {
      const MetricsHistogram::Snapshot h = reg.histogram(name).snapshot();
      if (!first_h) out += ",";
      first_h = false;
      out += '"';
      json_escape(out, name);
      std::snprintf(buf, sizeof(buf),
                    "\":{\"count\":%llu,\"sum\":%.6f,\"p50\":%.6f,"
                    "\"p95\":%.6f,\"p99\":%.6f}",
                    static_cast<unsigned long long>(h.count), h.sum,
                    h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
      out += buf;
    }
    out += "}}";
    return out;
  }

  // Refreshes the registry gauges from live loop state; called on every
  // loop pass and before any stats/metrics reply so scrapes never read a
  // stale level.
  void update_gauges() {
    g_queue_depth.set(queue.queued_depth());
    g_jobs_running.set(queue.running_count());
    g_retry_wait.set(queue.count_in_state(JobState::kRetryWait));
    g_clients.set(static_cast<std::int64_t>(clients.size()));
    g_watchers.set(static_cast<std::int64_t>(stats_watchers.size()));
  }

  void push_stats(double now) {
    if (stats_watchers.empty() || cfg.stats_push_interval_sec <= 0.0) return;
    if (now < next_stats_push) return;
    next_stats_push = now + cfg.stats_push_interval_sec;
    update_gauges();
    const std::string json = stats_json();
    for (int fd : stats_watchers) {
      auto it = clients.find(fd);
      if (it != clients.end()) {
        send_msg(it->second, MsgType::kStatsReply, json);
      }
    }
  }

  // -- accept -----------------------------------------------------------------

  void accept_clients() {
    for (;;) {
      int fd = -1;
      Status as = unix_accept(d.listen_fd_, fd);
      if (!as.ok()) {
        RLCCD_LOG_WARN("serve: %s", as.to_string().c_str());
        return;
      }
      if (fd < 0) return;  // nothing pending
      if (fault_fire("serve_accept_fail")) {
        // Injected accept failure: the connection is dropped on the floor;
        // the client's connect-retry loop recovers.
        ctr_accept_fail.increment();
        RLCCD_LOG_WARN("serve: injected accept failure (fd %d dropped)", fd);
        ::close(fd);
        continue;
      }
      if (static_cast<int>(clients.size()) >= kMaxClients) {
        RLCCD_LOG_WARN("serve: client limit %d reached; refusing fd %d",
                       kMaxClients, fd);
        ::close(fd);
        continue;
      }
      ClientConn conn;
      conn.fd = fd;
      clients.emplace(fd, std::move(conn));
      ctr_accepted.increment();
    }
  }

  void read_client(ClientConn& c) {
    bool eof = false;
    Status rs = read_available(c.fd, c.decoder, eof);
    Frame frame;
    while (!c.dead && c.decoder.next(frame)) handle_frame(c, frame);
    if (!c.decoder.error().ok()) {
      send_error(c, c.decoder.error().to_string());
      c.dead = true;
    }
    if (!rs.ok() || eof) c.dead = true;
  }

  // -- the loop ---------------------------------------------------------------

  int poll_timeout_ms(double now) {
    double next = now + 0.5;  // idle tick
    const double retry = queue.next_retry_due(now);
    if (retry > 0.0) next = std::min(next, retry);
    for (const WorkerSlot& s : slots) {
      if (s.child.running()) next = std::min(next, s.child.next_check());
    }
    if (draining && drain_deadline > 0.0) next = std::min(next, drain_deadline);
    if (!stats_watchers.empty() && cfg.stats_push_interval_sec > 0.0) {
      next = std::min(next, next_stats_push);
    }
    return std::max(1, static_cast<int>((next - now) * 1e3) + 1);
  }

  int run() {
    RLCCD_LOG_INFO("serve: listening on %s (%zu worker slots, queue depth "
                   "%d)",
                   cfg.socket_path.c_str(), slots.size(),
                   queue.config().max_queue_depth);
    std::vector<pollfd> pfds;
    // Parallel index: what each pollfd entry refers to.
    struct Ref {
      enum Kind { kStop, kListen, kClient, kWorker } kind;
      int key;  // client fd or worker slot index
    };
    std::vector<Ref> refs;

    while (!drained()) {
      dispatch_jobs();
      if (drained()) break;

      pfds.clear();
      refs.clear();
      pfds.push_back({d.stop_read_fd_, POLLIN, 0});
      refs.push_back({Ref::kStop, 0});
      if (!draining) {
        pfds.push_back({d.listen_fd_, POLLIN, 0});
        refs.push_back({Ref::kListen, 0});
      }
      for (auto& [fd, conn] : clients) {
        short events = POLLIN;
        if (!conn.outbuf.empty()) events |= POLLOUT;
        pfds.push_back({fd, events, 0});
        refs.push_back({Ref::kClient, fd});
      }
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].child.running()) continue;
        pfds.push_back({slots[i].child.fd(), POLLIN, 0});
        refs.push_back({Ref::kWorker, static_cast<int>(i)});
      }

      const double now = mono_sec();
      int pr;
      do {
        pr = ::poll(pfds.data(), pfds.size(), poll_timeout_ms(now));
      } while (pr < 0 && errno == EINTR);
      if (pr < 0) {
        RLCCD_LOG_ERROR("serve: poll: %s", std::strerror(errno));
        break;
      }

      for (std::size_t i = 0; i < pfds.size(); ++i) {
        if (pfds[i].revents == 0) continue;
        switch (refs[i].kind) {
          case Ref::kStop: {
            char buf[16];
            while (::read(d.stop_read_fd_, buf, sizeof(buf)) > 0) {
            }
            begin_drain();
            break;
          }
          case Ref::kListen:
            accept_clients();
            break;
          case Ref::kClient: {
            auto it = clients.find(refs[i].key);
            if (it == clients.end()) break;
            if (pfds[i].revents & POLLOUT) flush_client(it->second);
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
              read_client(it->second);
            }
            break;
          }
          case Ref::kWorker: {
            const int slot = refs[i].key;
            if (slots[static_cast<std::size_t>(slot)].child.running()) {
              drain_worker_pipe(slot);
            }
            break;
          }
        }
      }

      check_timeouts(mono_sec());
      update_gauges();
      push_stats(mono_sec());

      std::vector<int> doomed;
      for (auto& [fd, conn] : clients) {
        if (conn.dead) doomed.push_back(fd);
      }
      for (int fd : doomed) drop_client(fd);
    }

    // Every admitted job must be terminal here — the "no silent jobs"
    // contract the soak test holds the daemon to.
    queue.assert_no_silent_jobs();
    for (auto& [fd, conn] : clients) {
      flush_client(conn);
      ::close(fd);
    }
    clients.clear();
    RLCCD_LOG_INFO("serve: drained; exiting %d", exit_code);
    return exit_code;
  }
};

// ===========================================================================
// ServeDaemon
// ===========================================================================

ServeDaemon::ServeDaemon(ServeConfig config) : config_(std::move(config)) {
  RLCCD_EXPECTS(!config_.socket_path.empty());
  RLCCD_EXPECTS(!config_.root_dir.empty());
  RLCCD_EXPECTS(config_.workers >= 1);
}

ServeDaemon::~ServeDaemon() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(config_.socket_path.c_str());
  }
  if (stop_read_fd_ >= 0) ::close(stop_read_fd_);
  if (stop_write_fd_ >= 0) ::close(stop_write_fd_);
}

Status ServeDaemon::init() {
  RLCCD_TRY(make_dirs(config_.root_dir));
  RLCCD_TRY(unix_listen(config_.socket_path, listen_fd_));
  Pipe stop;
  RLCCD_TRY(pipe_create(stop));
  stop_read_fd_ = stop.read_fd;
  stop_write_fd_ = stop.write_fd;
  RLCCD_TRY(set_nonblocking(stop_read_fd_));
  RLCCD_TRY(set_nonblocking(stop_write_fd_));
  ::signal(SIGPIPE, SIG_IGN);  // dead clients surface as EPIPE, not death
  return Status();
}

int ServeDaemon::run() {
  RLCCD_EXPECTS(listen_fd_ >= 0 && stop_read_fd_ >= 0);
  DaemonLoop loop(*this);
  return loop.run();
}

void ServeDaemon::request_shutdown() {
  // Async-signal-safe: one write to the self-pipe wakes the poll loop.
  const char byte = 1;
  [[maybe_unused]] ssize_t w = ::write(stop_write_fd_, &byte, 1);
}

}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
