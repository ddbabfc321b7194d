// Run reports: load the flight-recorder artifacts of one run (metrics JSON
// from MetricsRegistry/TelemetrySnapshot plus the audit JSONL from
// JsonlAuditWriter), render a human-readable text report, and diff two runs
// with regression thresholds.
//
// The loader is tolerant by design: either artifact may be absent (a flow
// run has no audit; a crashed run may have only the audit), and unknown
// record types or extra JSON keys are skipped, so reports from newer
// binaries still load. Only structurally broken files fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"

namespace rlccd {

// Everything extracted from one run's artifacts.
struct RunReport {
  // From metrics JSON:
  SpanNode spans;  // synthetic root; empty when no metrics file was given
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  bool has_metrics = false;

  // From audit JSONL:
  struct IterationPoint {
    int iteration = 0;
    int survivors = 0;
    int poisoned = 0;
    int cancelled = 0;
    double mean_reward = 0.0;
    double mean_tns = 0.0;
    double iter_best_tns = 0.0;
    double best_tns = 0.0;
    double mean_steps = 0.0;
    double mean_entropy = 0.0;
    double grad_norm = 0.0;
    double baseline = 0.0;
  };
  struct EndpointFrequency {
    std::uint32_t endpoint = 0;
    std::uint64_t picked = 0;  // times chosen by an action
    std::uint64_t masked = 0;  // times masked by another endpoint's action
  };
  struct FlowOutcome {
    std::string label;
    double wns = 0.0;
    double tns = 0.0;
    std::uint64_t nve = 0;
    std::size_t outcomes = 0;   // prioritized endpoints recorded
    std::size_t improved = 0;   // final slack better than begin slack
  };
  std::vector<IterationPoint> iterations;
  std::vector<EndpointFrequency> endpoint_freq;  // by endpoint index
  std::vector<FlowOutcome> flows;
  std::uint64_t rollouts = 0;
  std::uint64_t poisoned_rollouts = 0;
  std::uint64_t cancelled_rollouts = 0;
  bool has_audit = false;

  // From a stitched Chrome trace (the serve daemon's trace-<job>.json, or
  // any "traceEvents" document): one row per pid with the process_name
  // metadata, event count, and time extent — enough to see that a
  // crashed-and-retried job produced two attempt rows without loading the
  // trace into a browser.
  struct TracePidRow {
    int pid = 0;
    std::string name;          // from the process_name metadata, if any
    std::uint64_t events = 0;  // X + i events on this pid
    double first_ts_us = 0.0;
    double last_ts_us = 0.0;
  };
  std::vector<TracePidRow> trace_pids;  // sorted by pid
  std::uint64_t trace_events = 0;       // total X + i events
  bool has_trace = false;

  // From BENCH_*.json files (the bench binaries' --json output): flat
  // metric names prefixed with the bench name ("incremental.flow_speedup"),
  // sorted by name. Ratio metrics (names containing "speedup" or
  // "reduction") are hardware-comparable and participate in the diff
  // verdict; absolute times are informational only.
  std::vector<std::pair<std::string, double>> bench_metrics;
  bool has_bench = false;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  // Aggregate over every span named "flow" at any depth (trainer rollouts
  // record it under "rollout/flow", the facade under
  // "rlccd/final_flows/flow"): total seconds and run count.
  [[nodiscard]] double flow_total_sec() const;
  [[nodiscard]] std::uint64_t flow_runs() const;
  // Final TNS of the run: the "rl" flow record when present, else the last
  // iteration's best TNS. NaN when neither exists.
  [[nodiscard]] double final_tns() const;
};

// Parses a metrics JSON document (the "counters"/"spans" keys) into `out`.
Status parse_metrics_json(const std::string& text, RunReport& out);
// Parses audit JSON Lines into `out` (accumulates across calls).
Status parse_audit_jsonl(const std::string& text, RunReport& out);
// Parses one bench document ({"bench": name, "metrics": {k: number}}) into
// `out`, prefixing each metric with the bench name (accumulates across
// calls; duplicate names keep the last value).
Status parse_bench_json(const std::string& text, RunReport& out);
// Parses a Chrome trace ({"traceEvents": [...]}) into the per-pid summary
// rows (accumulates across calls; re-parsing the same pid merges counts).
Status parse_chrome_trace_json(const std::string& text, RunReport& out);

// Loads a run from `path`: a directory containing metrics.json,
// audit.jsonl and/or BENCH_*.json files, or a single metrics-JSON /
// bench-JSON / audit-JSONL file (sniffed by content). Fails when nothing
// loadable is found.
Status load_run(const std::string& path, RunReport& out);

// Human-readable single-run report: span-tree hot paths, TNS trajectory,
// selection-entropy trend, per-endpoint pick frequency, flow outcomes.
std::string render_text_report(const RunReport& report);

// One span path of a flat self-time profile. Self time is the span's own
// wall-clock outside its recorded children; the root is the path's
// top-level span (worker threads and forked children record "rollout" as
// a root of its own).
struct SpanProfileRow {
  std::string path;  // '/'-separated from the top-level span
  std::uint64_t count = 0;
  double total_sec = 0.0;
  double self_sec = 0.0;
  double self_pct_of_root = 0.0;  // self_sec / the root's total_sec, in %
};

// Every span path of `spans` (a synthetic root, as RunReport::spans), by
// self time descending; ties keep depth-first tree order.
std::vector<SpanProfileRow> span_profile(const SpanNode& spans);
// span_profile() of the run as a text table (rlccd_report --profile).
std::string render_profile(const RunReport& report);

// -- diffing ------------------------------------------------------------------

struct DiffThresholds {
  // Allowed regression before the diff fails, in percent. Runtime compares
  // mean seconds per flow run; TNS compares final_tns() (more negative =
  // regression).
  double max_runtime_regress_pct = 10.0;
  double max_tns_regress_pct = 2.0;
  // Allowed drop in bench ratio metrics (speedups / work reductions, higher
  // is better) before the diff fails. Ratios are checked instead of
  // absolute times because CI hardware varies run to run; negative
  // disables.
  double max_speedup_regress_pct = 25.0;
};

struct ReportDiff {
  struct Entry {
    std::string name;
    double base = 0.0;
    double candidate = 0.0;
    double delta_pct = 0.0;  // signed change relative to base
    bool checked = false;    // participates in the regression verdict
    bool regressed = false;
  };
  std::vector<Entry> entries;

  [[nodiscard]] bool regressed() const;
  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_json() const;  // machine-readable report.json
};

ReportDiff diff_runs(const RunReport& base, const RunReport& candidate,
                     const DiffThresholds& thresholds);

}  // namespace rlccd
