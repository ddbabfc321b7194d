#include "rl/isolation/supervisor.h"

#include "common/contracts.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/telemetry.h"
#include "common/telemetry_wire.h"
#include "common/trace.h"

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <thread>

namespace rlccd {

RolloutSupervisor::RolloutSupervisor(SupervisorConfig config)
    : config_(config) {
  RLCCD_EXPECTS(config.workers >= 1);
  RLCCD_EXPECTS(config.max_restarts >= 0);
}

#ifdef _WIN32

bool RolloutSupervisor::supported() { return false; }

std::vector<WorkerOutcome> RolloutSupervisor::run(const WorkerJob&) {
  RLCCD_LOG_ERROR("process isolation is not supported on this platform");
  return std::vector<WorkerOutcome>(
      static_cast<std::size_t>(config_.workers));
}

#else

namespace {

// Fault directives for one spawn, decided in the parent so hit counting is
// global and deterministic (each forked child would otherwise count hits in
// its own copy of the injector).
struct Directives {
  bool crash = false;
  bool oom = false;
  bool truncate = false;
  bool hang = false;
  double hang_sec = 0.0;
};

bool targets_worker(double param, int w) {
  return param < 0.0 || static_cast<int>(param) == w;
}

Directives eval_directives(int w) {
  Directives d;
  double p = 0.0;
  if (fault_fire("worker_crash", &p) && targets_worker(p, w)) d.crash = true;
  p = 0.0;
  if (fault_fire("worker_oom", &p) && targets_worker(p, w)) d.oom = true;
  p = 0.0;
  if (fault_fire("pipe_truncate", &p) && targets_worker(p, w)) {
    d.truncate = true;
  }
  p = 0.0;
  if (fault_fire("worker_hang", &p)) {
    d.hang = true;
    d.hang_sec = p > 0.0 ? p : 3600.0;
  }
  return d;
}

std::string run_child(int w, ChildPipe& pipe, const Directives& dir,
                      double hb_interval, const WorkerJob& job) {
  if (dir.crash) _exit(3);
  if (dir.oom) {
    // What the kernel OOM killer looks like from the outside.
    ::raise(SIGKILL);
    ::pause();
  }
  if (dir.hang) {
    // Wedge silently: no heartbeats, no result. The parent's heartbeat
    // timeout (or hard deadline) must notice and SIGKILL us.
    std::this_thread::sleep_for(std::chrono::duration<double>(dir.hang_sec));
    _exit(0);
  }

  // Trace shipping: the child inherits the parent recorder's runtime gate
  // and ring contents across fork; prime a cursor so only events recorded
  // *after* the fork ship back. Numeric telemetry is NOT shipped here — it
  // rides the result wire's TelemetrySnapshot, so nothing double-counts.
  TraceCursor trace_cursor;
  std::uint64_t obs_seq = 0;
  const bool ship_trace = TraceRecorder::enabled();
  if (ship_trace) TraceRecorder::global().sync_cursor(trace_cursor);
  std::string payload;
  {
    Heartbeat beat(pipe, hb_interval, [&] {
      if (!ship_trace) return;
      ObsDelta d;
      d.seq = ++obs_seq;
      d.source_pid = static_cast<std::int32_t>(::getpid());
      TraceRecorder::global().collect_since(trace_cursor, d.trace_events);
      if (d.trace_events.empty()) return;
      (void)pipe.send(FrameType::kTelemetry, d.encode());
    });
    payload = job(w);
  }
  if (dir.truncate) {
    (void)write_truncated_frame(pipe.fd(), FrameType::kResult, payload,
                                payload.size() / 2);
    _exit(0);
  }
  return payload;
}

struct Slot {
  enum class State { kIdle, kBackoff, kRunning, kDone };
  State state = State::kIdle;
  double due = 0.0;  // kBackoff: earliest respawn time
  ChildProcess child;
  WorkerOutcome out;
};

}  // namespace

bool RolloutSupervisor::supported() { return true; }

std::vector<WorkerOutcome> RolloutSupervisor::run(const WorkerJob& job) {
  MetricsRegistry& reg = MetricsRegistry::global();
  static MetricsCounter& ctr_restarts = reg.counter("train.worker_restarts");
  static MetricsCounter& ctr_kills = reg.counter("train.worker_kills");

  const int n = config_.workers;
  const double silence_sec = config_.heartbeat_interval_sec > 0.0
                                 ? config_.heartbeat_timeout_sec
                                 : 0.0;
  std::vector<Slot> slots(static_cast<std::size_t>(n));

  auto spawn = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    const Directives dir = eval_directives(w);
    const Status st = s.child.spawn(
        config_.deadline_sec, silence_sec, [&](ChildPipe& pipe) {
          // Drop every inherited sibling read end, so sibling EOFs are not
          // held open by us.
          for (const Slot& other : slots) {
            if (other.child.fd() >= 0) ::close(other.child.fd());
          }
          return run_child(w, pipe, dir, config_.heartbeat_interval_sec, job);
        });
    if (!st.ok()) {
      // Out of fds or processes is not a child crash; give up on this
      // worker.
      RLCCD_LOG_ERROR("worker %d: %s", w, st.to_string().c_str());
      s.state = Slot::State::kDone;
      return;
    }
    s.state = Slot::State::kRunning;
    ++s.out.attempts;
  };

  // Classify a finished attempt and either schedule a restart with backoff
  // or mark the worker permanently failed.
  auto finalize = [&](int w) {
    Slot& s = slots[static_cast<std::size_t>(w)];
    ChildProcess::Exit ex = s.child.reap();
    if (ex.exit.failure == WorkerFailure::kNone) {
      s.state = Slot::State::kDone;
      s.out.completed = true;
      s.out.payload = std::move(ex.result);
      return;
    }
    const WorkerExit& e = ex.exit;
    s.out.last_failure = e.failure;
    s.out.exit_code = e.exit_code;
    s.out.term_signal = e.term_signal;
    const char* sep = ex.detail.empty() ? "" : ": ";
    if (s.out.attempts <= config_.max_restarts) {
      const double delay = retry_backoff_sec(
          config_.backoff_base_sec, config_.backoff_seed,
          static_cast<std::uint64_t>(w),
          static_cast<int>(s.out.backoff_sec.size()));
      s.out.backoff_sec.push_back(delay);
      s.state = Slot::State::kBackoff;
      s.due = mono_sec() + delay;
      ctr_restarts.increment();
      RLCCD_TRACE_INSTANT("train.worker_restart");
      RLCCD_LOG_WARN(
          "worker %d attempt %d failed (%s%s%s, exit=%d signal=%d); "
          "restarting in %.0f ms",
          w, s.out.attempts, worker_failure_name(e.failure), sep,
          ex.detail.c_str(), e.exit_code, e.term_signal, delay * 1e3);
    } else {
      s.state = Slot::State::kDone;
      RLCCD_LOG_ERROR(
          "worker %d lost after %d attempts (%s%s%s, exit=%d signal=%d)", w,
          s.out.attempts, worker_failure_name(e.failure), sep,
          ex.detail.c_str(), e.exit_code, e.term_signal);
    }
  };

  // Child trace events stitch into the parent timeline on the child's pid
  // row. A frame that fails to decode is dropped whole — a torn delta can
  // never half-apply. Numeric telemetry is not read here: it rides the
  // result wire (RolloutWire::telemetry), which the trainer merges.
  auto on_frame = [&](int w, const Frame& frame) {
    if (frame.type != static_cast<std::uint8_t>(FrameType::kTelemetry)) {
      return false;
    }
    ObsDelta d;
    if (d.decode(frame.payload).ok()) {
      TraceRecorder::global().import_events(
          d.source_pid > 0 ? d.source_pid
                           : slots[static_cast<std::size_t>(w)].child.pid(),
          d.trace_events);
    }
    return true;
  };

  for (;;) {
    double now = mono_sec();
    // Spawn everything that is due (initial spawns in worker order).
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state == Slot::State::kIdle ||
          (s.state == Slot::State::kBackoff && s.due <= now)) {
        spawn(w);
      }
    }

    std::vector<pollfd> fds;
    std::vector<int> fd_worker;
    double next_event = now + 0.2;  // idle tick
    bool any_pending = false;
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state == Slot::State::kRunning) {
        any_pending = true;
        fds.push_back(pollfd{s.child.fd(), POLLIN, 0});
        fd_worker.push_back(w);
        next_event = std::min(next_event, s.child.next_check());
      } else if (s.state == Slot::State::kBackoff) {
        any_pending = true;
        next_event = std::min(next_event, s.due);
      }
    }
    if (!any_pending) break;

    const int timeout_ms = std::max(
        1, static_cast<int>(std::ceil((next_event - now) * 1e3)));
    int pr;
    do {
      pr = ::poll(fds.data(), fds.size(), timeout_ms);
    } while (pr < 0 && errno == EINTR);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const int w = fd_worker[i];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          slots[static_cast<std::size_t>(w)].child.drain(
              [&](const Frame& f) { return on_frame(w, f); })) {
        finalize(w);
      }
    }

    now = mono_sec();
    for (int w = 0; w < n; ++w) {
      Slot& s = slots[static_cast<std::size_t>(w)];
      if (s.state != Slot::State::kRunning) continue;
      const char* reason = s.child.enforce(now);
      if (reason == nullptr) continue;
      ++s.out.kills;
      ctr_kills.increment();
      RLCCD_TRACE_INSTANT("train.worker_kill");
      RLCCD_LOG_WARN("worker %d: %s after %.2fs; sending SIGKILL", w, reason,
                     now - s.child.started());
    }
  }

  std::vector<WorkerOutcome> outcomes;
  outcomes.reserve(static_cast<std::size_t>(n));
  for (Slot& s : slots) outcomes.push_back(std::move(s.out));
  return outcomes;
}

#endif  // _WIN32

}  // namespace rlccd
