#include "tools/common_args.h"

#include <algorithm>
#include <cstdio>

#include "common/io.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace rlccd {
namespace tools {

void add_common_flags(std::vector<Arg>& table, CommonArgs& args,
                      std::initializer_list<std::string_view> only) {
  const Arg shared[] = {
      {"--metrics-json", "FILE", "write the telemetry registry as JSON",
       &args.metrics_json},
      {"--metrics-csv", "FILE", "write telemetry counters/histograms as CSV",
       &args.metrics_csv},
      {"--metrics-prom", "FILE", "write the telemetry registry for Prometheus",
       &args.metrics_prom},
      {"--trace-json", "FILE", "record a Chrome-trace timeline (Perfetto)",
       &args.trace_json},
      {"--audit-jsonl", "FILE", "stream RL decision provenance as JSON Lines",
       &args.audit_jsonl},
      {"--progress", nullptr, "stream per-pass/per-iteration events to stderr",
       &args.progress},
      {"--checkpoint-dir", "DIR", "persist training checkpoints here",
       &args.checkpoint_dir},
      {"--resume", nullptr, "resume from the newest valid checkpoint",
       &args.resume},
      {"--rollout-deadline", "SECS", "per-rollout deadline; <= 0 disables",
       &args.rollout_deadline_sec},
      {"--isolate-workers", nullptr, "run each rollout in a forked child",
       &args.isolate_workers},
      {"--max-worker-restarts", "N", "restarts per isolated worker, iteration",
       &args.max_worker_restarts, kCount},
      {"--flow-cache-mb", "MB", "flow-outcome cache cap in MiB; 0 disables",
       &args.flow_cache_mb, kCount},
  };
  for (const Arg& arg : shared) {
    if (only.size() == 0 ||
        std::find(only.begin(), only.end(), arg.name) != only.end()) {
      table.push_back(arg);
    }
  }
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

namespace {

// True when `s` is OK; otherwise prints it to stderr.
bool check(const Status& s) {
  if (!s.ok()) std::fprintf(stderr, "%s\n", s.to_string().c_str());
  return s.ok();
}

}  // namespace

bool open_common_artifacts(const CommonArgs& args,
                           std::unique_ptr<JsonlAuditWriter>& audit) {
  if (!args.trace_json.empty()) TraceRecorder::global().enable();
  return args.audit_jsonl.empty() ||
         check(JsonlAuditWriter::open(args.audit_jsonl, audit));
}

// Each document is written whole, with a trailing newline.
bool write_common_artifacts(const CommonArgs& args, JsonlAuditWriter* audit) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::pair<const std::string&, std::string (MetricsRegistry::*)() const>
      documents[] = {{args.metrics_json, &MetricsRegistry::to_json},
                     {args.metrics_csv, &MetricsRegistry::to_csv},
                     {args.metrics_prom, &MetricsRegistry::to_prometheus}};
  for (const auto& [path, render] : documents) {
    if (path.empty()) continue;
    if (!check(atomic_write_file(path, (reg.*render)() + '\n'))) return false;
    std::printf("telemetry written to %s\n", path.c_str());
  }
  if (!args.trace_json.empty()) {
    TraceRecorder& rec = TraceRecorder::global();
    rec.disable();
    const std::string trace = rec.to_chrome_json() + '\n';
    if (!check(atomic_write_file(args.trace_json, trace))) return false;
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                args.trace_json.c_str(),
                static_cast<unsigned long long>(rec.buffered_events()),
                static_cast<unsigned long long>(rec.dropped_events()));
  }
  if (audit != nullptr) {
    if (!check(audit->close())) return false;
    std::printf("audit written to %s\n", args.audit_jsonl.c_str());
  }
  return true;
}

}  // namespace tools
}  // namespace rlccd
