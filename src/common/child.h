// Supervised child processes: the one fork/pipe/heartbeat mechanism behind
// the rollout supervisor (rl/isolation/supervisor.h) and the serve daemon's
// job slots (serve/daemon.h).
//
// A child runs a caller-supplied body in a fork of the parent and delivers
// exactly one result frame over a pipe (common/ipc.h) before exiting; a side
// thread heartbeats while it works. The parent side, ChildProcess, drains
// the pipe from the caller's poll() loop, SIGKILLs an attempt at most once
// when it passes its hard deadline or goes silent, reaps it, and classifies
// how it ended. What a failed attempt leads to (a restart, a requeue, a
// postmortem), which fault directives apply, and what frames other than
// heartbeat / result / error mean stay with the caller.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/ipc.h"
#include "common/status.h"

namespace rlccd {

enum class WorkerFailure : std::uint8_t {
  kNone = 0,
  kExit,      // child exited with a nonzero code
  kSignal,    // child terminated by a signal (segfault, OOM kill, ...)
  kTimeout,   // parent killed it: deadline or heartbeat silence
  kProtocol,  // stream ended mid-frame or carried a malformed frame
};
const char* worker_failure_name(WorkerFailure f);

// Classification of one reaped child attempt (ChildProcess::reap). A whole
// result frame means kNone whatever the exit status; otherwise a parent
// SIGKILL is kTimeout, and a malformed or truncated stream, an error frame,
// or a clean exit without a result is kProtocol.
struct WorkerExit {
  WorkerFailure failure = WorkerFailure::kNone;  // kNone: result delivered
  int exit_code = -1;   // valid for kExit
  int term_signal = 0;  // valid for kSignal / kTimeout
};

// Wait before retry `retry` (0-based) of the child keyed `key`:
// min(base * 2^retry, 2 s) * (1 + u/2), with u in [0, 1) drawn from
// Rng(seed ^ 0x9E3779B97F4A7C15 * (key + 1) ^ retry). Deterministic per
// (seed, key, retry), so a retry schedule replays exactly.
[[nodiscard]] double retry_backoff_sec(double base_sec, std::uint64_t seed,
                                       std::uint64_t key, int retry);

// Monotonic seconds: the clock of ChildProcess::started(), next_check() and
// enforce().
double mono_sec();

#ifndef _WIN32

// Child side: the pipe's write end. write_frame() is two writes (header,
// payload), so the heartbeat thread and the child's own threads send whole
// frames through this lock.
class ChildPipe {
 public:
  explicit ChildPipe(int fd) : fd_(fd) {}
  ChildPipe(const ChildPipe&) = delete;
  ChildPipe& operator=(const ChildPipe&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  // A failed write means the parent is gone.
  Status send(FrameType type, std::string_view payload);

 private:
  int fd_;
  std::mutex mutex_;
};

// Child side: beats on `pipe` once at construction and then every
// `interval_sec` from a side thread, running `on_beat` (the caller's
// telemetry ship) after each beat. The destructor wakes the thread at once,
// joins it, and runs `on_beat` one last time as the final flush, so nothing
// recorded before the result frame is lost. `on_beat` never runs on two
// threads at once. interval_sec <= 0: no beats, only the final flush.
class Heartbeat {
 public:
  Heartbeat(ChildPipe& pipe, double interval_sec,
            std::function<void()> on_beat);
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  void ship();

  ChildPipe& pipe_;
  std::function<void()> on_beat_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

// Parent side of one supervised child attempt. Not copyable; a caller keeps
// one per slot and spawns into it again after reap().
class ChildProcess {
 public:
  // Runs in the forked child and returns its result payload; the child then
  // sends it as the result frame and exits 0 (5 if the write fails). A body
  // that throws sends the exception text as an error frame and exits 4.
  // Fault paths may _exit() from inside. The body closes the parent's fds it
  // inherited.
  using Body = std::function<std::string(ChildPipe& pipe)>;

  ChildProcess() = default;
  // SIGKILLs and reaps an attempt still running.
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  // Forks with a pipe whose read end is nonblocking. `deadline_sec` bounds
  // the attempt's wall clock and `silence_sec` the gap between any two
  // bytes from it; <= 0 disables either. Fails without a child when the
  // pipe or the fork does.
  Status spawn(double deadline_sec, double silence_sec, const Body& body);

  // Reads what the pipe holds; any byte resets the silence clock. Keeps the
  // result and error frames, drops heartbeats, and passes every other frame
  // to `on_frame`, which returns false for a frame it does not understand
  // (a protocol error). True when the stream ended: call reap().
  bool drain(const std::function<bool(const Frame& frame)>& on_frame);

  // SIGKILLs the attempt if it passed its deadline or went silent; returns
  // the reason when it did so now, else nullptr. An attempt is killed at
  // most once: its EOF may lag the kill (a grandchild can hold the pipe).
  const char* enforce(double now);
  // SIGKILLs the attempt for `reason` unless it was already killed; true
  // when this call sent the signal.
  bool kill(const char* reason);
  // When enforce() next needs to run; +inf when nothing is pending (no
  // limits, or already killed and waiting for EOF).
  [[nodiscard]] double next_check() const;

  struct Exit {
    WorkerExit exit;      // failure kNone: a whole result frame arrived
    std::string result;   // that frame's payload
    std::string detail;   // the kill reason or the error frame; else empty
  };
  // Closes the pipe, waits for the child, and classifies the attempt.
  Exit reap();

  [[nodiscard]] bool running() const { return pid_ > 0; }
  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] int fd() const { return fd_; }  // read end; -1 when idle
  [[nodiscard]] double started() const { return started_; }

 private:
  int pid_ = -1;
  int fd_ = -1;
  FrameDecoder decoder_;
  double deadline_sec_ = 0.0;
  double silence_sec_ = 0.0;
  double started_ = 0.0;
  double last_activity_ = 0.0;  // any bytes read (heartbeat or payload)
  bool got_result_ = false;
  std::string result_;
  std::string error_;  // error frame, or the frame on_frame rejected
  const char* kill_reason_ = nullptr;
};

#endif  // !_WIN32

}  // namespace rlccd
