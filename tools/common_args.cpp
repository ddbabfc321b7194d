#include "tools/common_args.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/telemetry.h"
#include "common/trace.h"

namespace rlccd {
namespace tools {

namespace {

// One shared flag: exactly one of the member pointers is set, which fixes
// both the value type and where the parsed value lands. `value_name` being
// null marks a boolean flag (no value token).
struct FlagSpec {
  const char* name;
  const char* value_name;  // null: boolean flag
  const char* help;
  std::string CommonArgs::* str = nullptr;
  bool CommonArgs::* flag = nullptr;
  double CommonArgs::* num = nullptr;
  int CommonArgs::* int_num = nullptr;
  long CommonArgs::* long_num = nullptr;
};

const FlagSpec kSpecs[] = {
    {"--metrics-json", "FILE",
     "write the telemetry registry as JSON after the command",
     &CommonArgs::metrics_json},
    {"--metrics-csv", "FILE",
     "write the telemetry counters/histograms as CSV",
     &CommonArgs::metrics_csv},
    {"--metrics-prom", "FILE",
     "write the telemetry registry as Prometheus text exposition",
     &CommonArgs::metrics_prom},
    {"--trace-json", "FILE",
     "record a Chrome-trace timeline (Perfetto / chrome://tracing)",
     &CommonArgs::trace_json},
    {"--audit-jsonl", "FILE",
     "stream RL decision provenance as JSON Lines during training",
     &CommonArgs::audit_jsonl},
    {"--progress", nullptr, "stream per-pass / per-iteration events to stderr",
     nullptr, &CommonArgs::progress},
    {"--checkpoint-dir", "DIR",
     "persist training checkpoints here (empty: disabled)",
     &CommonArgs::checkpoint_dir},
    {"--resume", nullptr,
     "resume from the newest valid checkpoint in --checkpoint-dir", nullptr,
     &CommonArgs::resume},
    {"--rollout-deadline", "SECS",
     "per-rollout watchdog deadline; <= 0 disables", nullptr, nullptr,
     &CommonArgs::rollout_deadline_sec},
    {"--isolate-workers", nullptr,
     "run each rollout in a forked, supervised child process", nullptr,
     &CommonArgs::isolate_workers},
    {"--max-worker-restarts", "N",
     "restarts allowed per isolated worker per iteration", nullptr, nullptr,
     nullptr, &CommonArgs::max_worker_restarts},
    {"--flow-cache-mb", "MB",
     "cap on stored flow outcomes in MiB (0 disables memoization)", nullptr,
     nullptr, nullptr, nullptr, &CommonArgs::flow_cache_mb},
};

}  // namespace

bool parse_common_flag(int argc, char** argv, int& i, CommonArgs& args,
                       bool& ok) {
  for (const FlagSpec& spec : kSpecs) {
    if (std::strcmp(argv[i], spec.name) != 0) continue;
    if (spec.value_name == nullptr) {
      args.*spec.flag = true;
      return true;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a %s value\n", spec.name,
                   spec.value_name);
      ok = false;
      return true;
    }
    const char* v = argv[++i];
    if (spec.str != nullptr) {
      args.*spec.str = v;
      return true;
    }
    // A number must be the whole token and in range; counts are >= 0.
    char* end = nullptr;
    errno = 0;
    const double d = spec.num != nullptr ? std::strtod(v, &end) : 0.0;
    const long n = spec.num != nullptr ? 0 : std::strtol(v, &end, 10);
    const long max = spec.int_num != nullptr ? INT_MAX : LONG_MAX;
    if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(d) ||
        n < 0 || n > max) {
      std::fprintf(stderr, "%s: invalid %s value '%s'\n", spec.name,
                   spec.value_name, v);
      ok = false;
    } else if (spec.num != nullptr) {
      args.*spec.num = d;
    } else if (spec.int_num != nullptr) {
      args.*spec.int_num = static_cast<int>(n);
    } else {
      args.*spec.long_num = n;
    }
    return true;
  }
  return false;
}

void print_common_help(std::FILE* out) {
  std::fprintf(out, "common flags:\n");
  for (const FlagSpec& spec : kSpecs) {
    char left[48];
    std::snprintf(left, sizeof(left), "%s %s", spec.name,
                  spec.value_name != nullptr ? spec.value_name : "");
    std::fprintf(out, "  %-28s %s\n", left, spec.help);
  }
}

std::string common_usage_fragment() {
  std::string usage;
  for (const FlagSpec& spec : kSpecs) {
    if (!usage.empty()) usage += ' ';
    usage += '[';
    usage += spec.name;
    if (spec.value_name != nullptr) {
      usage += ' ';
      usage += spec.value_name;
    }
    usage += ']';
  }
  return usage;
}

void apply_train_args(const CommonArgs& args, TrainConfig& train) {
  train.checkpoint_dir = args.checkpoint_dir;
  train.resume = args.resume;
  train.rollout_deadline_sec = args.rollout_deadline_sec;
  train.isolate_workers = args.isolate_workers;
  if (args.max_worker_restarts >= 0) {
    train.max_worker_restarts = args.max_worker_restarts;
  }
  if (args.flow_cache_mb >= 0) {
    train.flow_cache_mb = static_cast<std::size_t>(args.flow_cache_mb);
  }
}

bool open_common_artifacts(const CommonArgs& args,
                           std::unique_ptr<JsonlAuditWriter>& audit) {
  if (!args.trace_json.empty()) TraceRecorder::global().enable();
  if (!args.audit_jsonl.empty()) {
    Status s = JsonlAuditWriter::open(args.audit_jsonl, audit);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return false;
    }
  }
  return true;
}

bool write_common_artifacts(const CommonArgs& args, JsonlAuditWriter* audit) {
  if (!args.metrics_json.empty()) {
    if (!MetricsRegistry::global().write_json(args.metrics_json)) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_json.c_str());
      return false;
    }
    std::printf("telemetry written to %s\n", args.metrics_json.c_str());
  }
  if (!args.metrics_csv.empty()) {
    if (!MetricsRegistry::global().write_csv(args.metrics_csv)) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_csv.c_str());
      return false;
    }
    std::printf("telemetry written to %s\n", args.metrics_csv.c_str());
  }
  if (!args.metrics_prom.empty()) {
    if (!MetricsRegistry::global().write_prometheus(args.metrics_prom)) {
      std::fprintf(stderr, "cannot write %s\n", args.metrics_prom.c_str());
      return false;
    }
    std::printf("telemetry written to %s\n", args.metrics_prom.c_str());
  }
  if (!args.trace_json.empty()) {
    TraceRecorder& rec = TraceRecorder::global();
    rec.disable();
    if (!rec.write_chrome_json(args.trace_json)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_json.c_str());
      return false;
    }
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                args.trace_json.c_str(),
                static_cast<unsigned long long>(rec.buffered_events()),
                static_cast<unsigned long long>(rec.dropped_events()));
  }
  if (audit != nullptr) {
    Status s = audit->close();
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return false;
    }
    std::printf("audit written to %s\n", args.audit_jsonl.c_str());
  }
  return true;
}

}  // namespace tools
}  // namespace rlccd
