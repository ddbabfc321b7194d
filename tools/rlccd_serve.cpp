// The rlccd_serve daemon executable: a long-lived optimization service.
//
//   rlccd_serve --socket /tmp/rlccd.sock --root /tmp/rlccd-serve [flags]
//
// Accepts job submissions from rlccd_client over the Unix socket, runs each
// job in a supervised forked worker, retries crashed attempts from their
// newest checkpoint, and drains gracefully on SIGTERM/SIGINT (exit 0: every
// job reached a terminal state and running children stopped at a
// checkpoint; exit 1: the drain deadline forced SIGKILLs).
//
// RLCCD_FAULTS arms the serve_* fault points (see serve/daemon.h) for
// recovery drills; --metrics-json dumps the telemetry registry (including
// the serve.* counters the CI smoke job asserts on) at exit.
#ifdef _WIN32
#include <cstdio>
int main() {
  std::fprintf(stderr, "rlccd_serve requires fork(); not supported here\n");
  return 2;
}
#else

#include <signal.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.h"
#include "serve/daemon.h"
#include "tools/common_args.h"

using namespace rlccd;

namespace {

serve::ServeDaemon* g_daemon = nullptr;

void on_signal(int) {
  if (g_daemon != nullptr) g_daemon->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Info);
  serve::ServeConfig cfg;
  tools::CommonArgs artifacts;
  std::vector<tools::Arg> table = {
      {"--socket", "PATH", "Unix socket to listen on (required)",
       &cfg.socket_path},
      {"--root", "DIR", "session workspace root (required)", &cfg.root_dir},
      {"--workers", "N", "concurrent job children", &cfg.workers,
       tools::kAtLeastOne},
      {"--queue-depth", "N", "global queued-job bound",
       &cfg.queue.max_queue_depth, tools::kCount},
      {"--session-queue", "N", "queued jobs per session",
       &cfg.queue.max_queued_per_session, tools::kCount},
      {"--session-inflight", "N", "running jobs per session",
       &cfg.queue.max_inflight_per_session, tools::kCount},
      {"--retries", "N", "retries per job", &cfg.job_retries, tools::kCount},
      {"--job-deadline", "SEC", "per-attempt SIGKILL deadline; <= 0 disables",
       &cfg.job_deadline_sec},
      {"--hb-timeout", "SEC", "heartbeat-silence SIGKILL; <= 0 disables",
       &cfg.heartbeat_timeout_sec},
      {"--drain-timeout", "SEC", "max graceful-drain wait",
       &cfg.drain_timeout_sec},
      {"--backoff-base", "SEC", "retry backoff base",
       &cfg.retry_backoff_base_sec},
      {"--stats-interval", "SEC",
       "stats-watch push cadence; <= 0 disables streaming",
       &cfg.stats_push_interval_sec},
  };
  tools::add_common_flags(table, artifacts,
                          {"--metrics-json", "--metrics-prom"});
  if (auto rc = tools::parse_args(argc, argv, table)) return *rc;
  if (cfg.socket_path.empty() || cfg.root_dir.empty()) {
    std::fprintf(stderr, "--socket and --root are required\n");
    return 2;
  }

  serve::ServeDaemon daemon(cfg);
  Status init = daemon.init();
  if (!init.ok()) {
    std::fprintf(stderr, "rlccd_serve: %s\n", init.to_string().c_str());
    return 1;
  }
  g_daemon = &daemon;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const int rc = daemon.run();
  if (!tools::write_common_artifacts(artifacts, nullptr)) return 1;
  return rc;
}

#endif  // _WIN32
