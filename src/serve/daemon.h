// The rlccd_serve daemon: a crash-surviving optimization service.
//
// One single-threaded poll() event loop multiplexes the Unix-socket
// listener, every connected client, a self-pipe for signals, and one pipe
// per running job worker. Jobs run in forked children (one process per
// job attempt), so a crashing training run — segfault, OOM kill, wedge —
// costs one attempt, never the daemon:
//
//   * each slot supervises its attempt with the shared ChildProcess
//     (common/child.h), which classifies the death; the daemon retries with
//     the shared exponential backoff plus deterministic per-job jitter,
//     resuming from the job's newest checkpoint, so the retried result is
//     bit-identical to an uncrashed run;
//   * admission control bounds the queue (global depth + per-session
//     caps); a full queue sheds the lowest-priority queued job only for a
//     strictly-higher-priority submit, else rejects with a reason;
//   * ChildProcess enforces a hard per-attempt deadline and a
//     heartbeat-silence timeout with SIGKILL, once per attempt;
//   * slow or vanished clients are dropped when their output buffer passes
//     a bound — a stuck reader cannot wedge the loop;
//   * SIGTERM drains: queued jobs are shed (reported, never silent),
//     running children get SIGTERM and stop at their next iteration
//     boundary with everything completed already checkpointed, and the
//     daemon exits 0 once every job is terminal (1 when the drain deadline
//     forces SIGKILL).
//
// Fault points, evaluated in the daemon so hit counts are deterministic:
//   serve_accept_fail@H[:C]   accepted connection is dropped immediately
//   serve_queue_full@H[:C]    a submit is admitted as if the queue were full
//   serve_client_disconnect@H[:C]  client connection force-closed after a
//                                  request is handled
//   serve_worker_crash@H[:C[:N]]   job child _exit(3)s after N checkpoints
//                                  (default 0: before training starts)
#pragma once

#ifndef _WIN32

#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/queue.h"

namespace rlccd {
namespace serve {

struct ServeConfig {
  std::string socket_path;  // Unix-domain socket the daemon listens on
  std::string root_dir;     // session workspaces live under here
  int workers = 2;          // concurrent job children
  QueueConfig queue;

  // Retries per job (attempts = retries + 1); backoff before retry r is
  // retry_backoff_sec(base, 1, job id, r) (common/child.h):
  // min(base * 2^r, 2 s) * (1 + u/2), u deterministic per (job id, r).
  int job_retries = 2;
  double retry_backoff_base_sec = 0.05;

  // Default per-attempt wall-clock deadline (SIGKILL); a JobSpec deadline
  // overrides it per job. <= 0 disables.
  double job_deadline_sec = 300.0;
  // Job children heartbeat this often; silence past the timeout is a wedge
  // (SIGKILL + retry). <= 0 disables either side.
  double heartbeat_interval_sec = 0.25;
  double heartbeat_timeout_sec = 10.0;
  // SIGTERM drain: children still alive this long after the drain began
  // are SIGKILLed and their jobs marked failed; the daemon then exits 1.
  double drain_timeout_sec = 30.0;

  // kStatsWatch subscribers get a fresh stats JSON push this often while
  // subscribed (the first push is immediate). <= 0 disables pushes.
  double stats_push_interval_sec = 0.25;

  int max_clients = 64;
  // A client whose unsent output passes this bound is disconnected
  // (backpressure: a stalled reader must not buffer the daemon into the
  // ground).
  std::size_t client_outbuf_limit = 8u << 20;
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeConfig config);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  // Creates the root directory, binds the socket, opens the self-pipe.
  Status init();

  // Runs the event loop until a drain completes. 0: clean drain (every job
  // terminal, children exited on their own); 1: the drain deadline forced
  // SIGKILLs. init() must have succeeded.
  int run();

  // Begins a graceful drain; async-signal-safe (one write to the
  // self-pipe), callable from a SIGTERM/SIGINT handler.
  void request_shutdown();

  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  friend struct DaemonLoop;
  ServeConfig config_;
  int listen_fd_ = -1;
  int stop_read_fd_ = -1;
  int stop_write_fd_ = -1;
};

}  // namespace serve
}  // namespace rlccd

#endif  // !_WIN32
