// Command-line client for the rlccd_serve daemon.
//
//   rlccd_client --socket PATH submit [spec flags] [--wait]
//   rlccd_client --socket PATH poll JOB_ID
//   rlccd_client --socket PATH wait JOB_ID [--timeout SEC]
//   rlccd_client --socket PATH cancel JOB_ID
//   rlccd_client --socket PATH stats
//   rlccd_client --socket PATH watch [--count N] [--timeout SEC] [--json]
//   rlccd_client --socket PATH metrics
//   rlccd_client --socket PATH shutdown
//
// submit prints "job <id>" on admission (exit 0) or the rejection reason
// (exit 3). wait streams progress lines while the job runs and exits 0 only
// when the job ends kDone or kDrained. watch subscribes to the daemon's
// streamed stats feed and renders a refreshing fleet view (queue depth,
// per-worker phase, cache hit rate, retry state) — or the raw JSON
// documents with --json. metrics prints the daemon's Prometheus text
// exposition.
#ifdef _WIN32
#include <cstdio>
int main() {
  std::fprintf(stderr, "rlccd_client requires Unix sockets\n");
  return 2;
}
#else

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "serve/client.h"
#include "tools/flags.h"

using namespace rlccd;

namespace {

void print_status(const serve::JobStatus& s) {
  std::printf("job %llu  %s  session=%s kind=%s attempts=%d",
              static_cast<unsigned long long>(s.job_id),
              serve::job_state_name(s.state), s.session.c_str(),
              serve::job_kind_name(s.kind), s.attempts);
  if (s.state == serve::JobState::kDone ||
      s.state == serve::JobState::kDrained) {
    std::printf("  iters=%d best_tns=%.3f default_tns=%.3f |sel|=%llu "
                "digest=%08x",
                s.iterations, s.best_tns, s.default_tns,
                static_cast<unsigned long long>(s.selection_size),
                s.result_digest);
  }
  if (!s.detail.empty()) std::printf("  (%s)", s.detail.c_str());
  if (!s.postmortem.empty()) std::printf("  postmortem=%s", s.postmortem.c_str());
  if (!s.trace.empty()) std::printf("  trace=%s", s.trace.c_str());
  std::printf("\n");
}

// Exit status 1 after naming the daemon call that failed.
int failed(const Status& s) {
  std::fprintf(stderr, "rlccd_client: %s\n", s.to_string().c_str());
  return 1;
}

int exit_code_for(const serve::JobStatus& s) {
  return (s.state == serve::JobState::kDone ||
          s.state == serve::JobState::kDrained)
             ? 0
             : 1;
}

// One rendered frame of the fleet view: a compact multi-line summary of the
// streamed stats document. Falls back to the raw JSON if it fails to parse
// (a newer daemon's document still shows up, just unrendered).
void print_fleet_view(const std::string& json, int frame) {
  JsonValue doc;
  if (!JsonValue::parse(json, doc).ok() || !doc.is_object()) {
    std::printf("%s\n", json.c_str());
    return;
  }
  const JsonValue* gauges = doc.find("gauges");
  auto gauge = [&](const char* name) -> double {
    return gauges != nullptr && gauges->is_object()
               ? gauges->number_or(name, 0.0)
               : 0.0;
  };
  std::printf("-- stats #%d  uptime %.1fs%s --\n", frame,
              doc.number_or("uptime_sec", 0.0),
              doc.bool_or("draining", false) ? "  DRAINING" : "");
  std::printf("queue depth=%d running=%d retry_wait=%d clients=%d "
              "watchers=%d\n",
              static_cast<int>(gauge("serve.queue_depth")),
              static_cast<int>(gauge("serve.jobs_running")),
              static_cast<int>(gauge("serve.jobs_retry_wait")),
              static_cast<int>(gauge("serve.clients_connected")),
              static_cast<int>(gauge("serve.stats_watchers")));
  const JsonValue* retry = doc.find("retry");
  if (retry != nullptr && retry->is_object()) {
    const double due = retry->number_or("next_due_in_sec", -1.0);
    if (due >= 0.0) {
      std::printf("retry  %d waiting, next due in %.2fs\n",
                  static_cast<int>(retry->number_or("waiting", 0.0)), due);
    }
  }
  const JsonValue* cache = doc.find("cache");
  if (cache != nullptr && cache->is_object()) {
    std::printf("cache  hits=%llu misses=%llu hit_rate=%.2f%%\n",
                static_cast<unsigned long long>(
                    cache->number_or("hits", 0.0)),
                static_cast<unsigned long long>(
                    cache->number_or("misses", 0.0)),
                100.0 * cache->number_or("hit_rate", 0.0));
  }
  const JsonValue* workers = doc.find("workers");
  if (workers != nullptr && workers->is_array()) {
    for (const JsonValue& w : workers->array_items()) {
      if (!w.is_object()) continue;
      if (w.bool_or("busy", false)) {
        std::printf("worker %d  pid=%d job=%llu  %s\n",
                    static_cast<int>(w.number_or("slot", 0.0)),
                    static_cast<int>(w.number_or("pid", -1.0)),
                    static_cast<unsigned long long>(
                        w.number_or("job", 0.0)),
                    w.string_or("phase", "").c_str());
      } else {
        std::printf("worker %d  idle\n",
                    static_cast<int>(w.number_or("slot", 0.0)));
      }
    }
  }
  std::fflush(stdout);
}

int do_wait(serve::ServeClient& client, std::uint64_t job_id,
            double timeout_sec) {
  serve::JobStatus status;
  Status s = client.wait(
      job_id, status, timeout_sec,
      [](const serve::JobProgress& p) {
        std::fprintf(stderr, "  [%s] %s", p.phase.c_str(), p.step.c_str());
        if (p.index >= 0) std::fprintf(stderr, " #%d", p.index);
        for (const auto& [name, value] : p.metrics) {
          std::fprintf(stderr, " %s=%.3f", name.c_str(), value);
        }
        std::fprintf(stderr, "\n");
      },
      {});
  if (!s.ok()) return failed(s);
  print_status(status);
  return exit_code_for(status);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  std::string socket_path;
  std::string command;
  std::uint64_t job_id = 0;
  std::string kind = "train";
  bool wait_flag = false;
  bool json_flag = false;
  int count = 0;
  double timeout_sec = 0.0;
  serve::JobSpec spec;
  spec.session = "default";
  const std::vector<tools::Arg> table = {
      {"<command>", nullptr,
       "submit, poll, wait, cancel, stats, watch, metrics or shutdown",
       &command, {},
       [](const std::string& c) {
         return c == "submit" || c == "poll" || c == "wait" || c == "cancel" ||
                c == "stats" || c == "watch" || c == "metrics" ||
                c == "shutdown";
       }},
      {"[JOB_ID]", nullptr, "the job poll, wait and cancel act on", &job_id},
      {"--socket", "PATH", "the daemon's Unix socket (required)",
       &socket_path},
      {"--session", "NAME", "submit: session name", &spec.session},
      {"--kind", "KIND", "submit: train or noop", &kind, {},
       [](const std::string& k) { return k == "train" || k == "noop"; }},
      {"--block", "B", "submit: Table II block name", &spec.block},
      {"--scale", "X", "submit: share of the paper's cell count",
       &spec.scale},
      {"--iters", "N", "submit: training iterations", &spec.iters},
      {"--workers", "N", "submit: rollout workers", &spec.rollout_workers},
      {"--seed", "N", "submit: design seed", &spec.seed},
      {"--priority", "P", "submit: higher survives overload longer",
       &spec.priority},
      {"--deadline", "SEC", "submit: per-attempt deadline; <= 0: the daemon's",
       &spec.deadline_sec},
      {"--noop-sec", "X", "submit: noop job duration", &spec.noop_sec},
      {"--wait", nullptr, "submit: wait for the job to end", &wait_flag},
      {"--timeout", "SEC",
       "wait, watch: give up after SEC; <= 0: wait forever, watch 10 s",
       &timeout_sec},
      {"--count", "N", "watch: frames to show (0: until --timeout)", &count,
       tools::kCount},
      {"--json", nullptr, "watch: print the raw stats documents", &json_flag},
  };
  std::size_t positionals = 0;
  if (auto rc = tools::parse_args(argc, argv, table, &positionals)) return *rc;
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    return 2;
  }
  spec.kind = kind == "noop" ? serve::JobKind::kNoop : serve::JobKind::kTrain;
  if ((command == "poll" || command == "cancel" || command == "wait") &&
      positionals < 2) {
    std::fprintf(stderr, "%s needs a JOB_ID\n", command.c_str());
    return 2;
  }

  serve::ServeClient client;
  Status cs = client.connect(socket_path);
  if (!cs.ok()) return failed(cs);

  if (command == "submit") {
    serve::SubmitReply reply;
    Status s = client.submit(spec, reply);
    if (!s.ok()) return failed(s);
    if (!reply.accepted) {
      std::fprintf(stderr, "rejected: %s\n", reply.reason.c_str());
      return 3;
    }
    std::printf("job %llu\n", static_cast<unsigned long long>(reply.job_id));
    if (wait_flag) return do_wait(client, reply.job_id, timeout_sec);
    return 0;
  }
  if (command == "poll" || command == "cancel") {
    serve::JobStatus status;
    Status s = command == "poll" ? client.poll_job(job_id, status)
                                 : client.cancel(job_id, status);
    if (!s.ok()) return failed(s);
    print_status(status);
    return 0;
  }
  if (command == "wait") return do_wait(client, job_id, timeout_sec);
  if (command == "stats") {
    std::string json;
    Status s = client.stats_json(json);
    if (!s.ok()) return failed(s);
    std::printf("%s\n", json.c_str());
    return 0;
  }
  if (command == "watch") {
    int frame = 0;
    Status s = client.watch_stats(
        [&](const std::string& json) {
          ++frame;
          if (json_flag) {
            std::printf("%s\n", json.c_str());
            std::fflush(stdout);
          } else {
            print_fleet_view(json, frame);
          }
          return true;
        },
        count, timeout_sec > 0.0 ? timeout_sec : 10.0);
    if (!s.ok()) return failed(s);
    return 0;
  }
  if (command == "metrics") {
    std::string text;
    Status s = client.metrics_text(text);
    if (!s.ok()) return failed(s);
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  Status s = client.shutdown();
  if (!s.ok()) return failed(s);
  std::printf("draining\n");
  return 0;
}

#endif  // _WIN32
