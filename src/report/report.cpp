#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>

#include "common/io.h"
#include "common/json.h"
#include "common/json_writer.h"

namespace rlccd {

namespace {

void append_line(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

Status parse_span_node(const JsonValue& v, SpanNode& node) {
  if (!v.is_object()) return Status::corrupt("span entry is not an object");
  node.name = v.string_or("name", "");
  node.count = static_cast<std::uint64_t>(v.number_or("count", 0.0));
  node.total_sec = v.number_or("total_sec", 0.0);
  const JsonValue* children = v.find("children");
  if (children != nullptr && children->is_array()) {
    node.children.resize(children->array_items().size());
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      RLCCD_TRY(parse_span_node(children->array_items()[i], node.children[i]));
    }
  }
  return Status();
}

RunReport::EndpointFrequency& freq_for(RunReport& report,
                                       std::uint32_t endpoint) {
  auto& v = report.endpoint_freq;
  auto it = std::lower_bound(
      v.begin(), v.end(), endpoint,
      [](const auto& f, std::uint32_t e) { return f.endpoint < e; });
  if (it == v.end() || it->endpoint != endpoint) {
    it = v.insert(it, {endpoint, 0, 0});
  }
  return *it;
}

void accumulate_rollout(const JsonValue& v, RunReport& report) {
  ++report.rollouts;
  if (v.bool_or("poisoned", false)) ++report.poisoned_rollouts;
  if (v.bool_or("cancelled", false)) ++report.cancelled_rollouts;
  const JsonValue* steps = v.find("steps");
  if (steps == nullptr || !steps->is_array()) return;
  for (const JsonValue& step : steps->array_items()) {
    if (!step.is_object()) continue;
    const auto chosen =
        static_cast<std::uint32_t>(step.number_or("chosen", 0.0));
    ++freq_for(report, chosen).picked;
    const JsonValue* masked = step.find("masked");
    if (masked == nullptr || !masked->is_array()) continue;
    for (const JsonValue& m : masked->array_items()) {
      // [endpoint, overlap] pairs.
      if (!m.is_array() || m.array_items().empty()) continue;
      const auto ep = static_cast<std::uint32_t>(
          m.array_items()[0].number_value());
      ++freq_for(report, ep).masked;
    }
  }
}

void accumulate_iteration(const JsonValue& v, RunReport& report) {
  RunReport::IterationPoint p;
  p.iteration = static_cast<int>(v.number_or("iteration", 0.0));
  p.survivors = static_cast<int>(v.number_or("survivors", 0.0));
  p.poisoned = static_cast<int>(v.number_or("poisoned", 0.0));
  p.cancelled = static_cast<int>(v.number_or("cancelled", 0.0));
  p.mean_reward = v.number_or("mean_reward", 0.0);
  p.mean_tns = v.number_or("mean_tns", 0.0);
  p.iter_best_tns = v.number_or("iter_best_tns", 0.0);
  p.best_tns = v.number_or("best_tns", 0.0);
  p.mean_steps = v.number_or("mean_steps", 0.0);
  p.mean_entropy = v.number_or("mean_entropy", 0.0);
  p.grad_norm = v.number_or("grad_norm", 0.0);
  p.baseline = v.number_or("baseline", 0.0);
  report.iterations.push_back(p);
}

void accumulate_flow(const JsonValue& v, RunReport& report) {
  RunReport::FlowOutcome f;
  f.label = v.string_or("label", "");
  f.wns = v.number_or("wns", 0.0);
  f.tns = v.number_or("tns", 0.0);
  f.nve = static_cast<std::uint64_t>(v.number_or("nve", 0.0));
  const JsonValue* outcomes = v.find("outcomes");
  if (outcomes != nullptr && outcomes->is_array()) {
    for (const JsonValue& o : outcomes->array_items()) {
      // [pin, begin_slack, final_slack] triples.
      if (!o.is_array() || o.array_items().size() < 3) continue;
      ++f.outcomes;
      if (o.array_items()[2].number_value() >
          o.array_items()[1].number_value()) {
        ++f.improved;
      }
    }
  }
  report.flows.push_back(std::move(f));
}

void walk_flow_spans(const SpanNode& node, double& total_sec,
                     std::uint64_t& runs) {
  if (node.name == "flow") {
    total_sec += node.total_sec;
    runs += node.count;
  }
  for (const SpanNode& c : node.children) walk_flow_spans(c, total_sec, runs);
}

// Every span path under `node`, depth first; `root_sec` is the total of the
// path's top-level span.
void flatten_spans(const SpanNode& node, const std::string& prefix,
                   double root_sec, std::vector<SpanProfileRow>& out) {
  for (const SpanNode& c : node.children) {
    std::string path = prefix.empty() ? c.name : prefix + "/" + c.name;
    const double root = prefix.empty() ? c.total_sec : root_sec;
    out.push_back({path, c.count, c.total_sec, c.exclusive_sec(),
                   root > 0.0 ? 100.0 * c.exclusive_sec() / root : 0.0});
    flatten_spans(c, path, root, out);
  }
}

}  // namespace

std::vector<SpanProfileRow> span_profile(const SpanNode& spans) {
  std::vector<SpanProfileRow> rows;
  flatten_spans(spans, "", 0.0, rows);
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.self_sec > b.self_sec;
  });
  return rows;
}

std::string render_profile(const RunReport& report) {
  std::string out;
  append_line(out, "== self-time profile (by self wall-clock) ==");
  append_line(out, "%-48s %8s %12s %12s %10s", "span path", "count", "total_s",
              "self_s", "self_%root");
  for (const SpanProfileRow& row : span_profile(report.spans)) {
    append_line(out, "%-48s %8llu %12.3f %12.3f %10.1f", row.path.c_str(),
                static_cast<unsigned long long>(row.count), row.total_sec,
                row.self_sec, row.self_pct_of_root);
  }
  return out;
}

std::uint64_t RunReport::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double RunReport::flow_total_sec() const {
  double total = 0.0;
  std::uint64_t runs = 0;
  walk_flow_spans(spans, total, runs);
  return total;
}

std::uint64_t RunReport::flow_runs() const {
  double total = 0.0;
  std::uint64_t runs = 0;
  walk_flow_spans(spans, total, runs);
  return runs;
}

double RunReport::final_tns() const {
  for (auto it = flows.rbegin(); it != flows.rend(); ++it) {
    if (it->label == "rl") return it->tns;
  }
  if (!iterations.empty()) return iterations.back().best_tns;
  return std::nan("");
}

Status parse_metrics_json(const std::string& text, RunReport& out) {
  JsonValue doc;
  RLCCD_TRY(JsonValue::parse(text, doc));
  if (!doc.is_object()) {
    return Status::corrupt("metrics document is not a JSON object");
  }
  const JsonValue* counters = doc.find("counters");
  if (counters != nullptr && counters->is_object()) {
    for (const auto& [name, value] : counters->object_items()) {
      out.counters.emplace_back(
          name, static_cast<std::uint64_t>(value.number_value()));
    }
  }
  const JsonValue* spans = doc.find("spans");
  if (spans != nullptr && spans->is_array()) {
    out.spans.children.resize(spans->array_items().size());
    for (std::size_t i = 0; i < out.spans.children.size(); ++i) {
      RLCCD_TRY(
          parse_span_node(spans->array_items()[i], out.spans.children[i]));
    }
  }
  out.has_metrics = true;
  return Status();
}

Status parse_audit_jsonl(const std::string& text, RunReport& out) {
  std::size_t line_no = 0;
  std::size_t records = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    JsonValue v;
    Status s = JsonValue::parse(line, v);
    if (!s.ok()) {
      return Status::corrupt("audit line %zu: %s", line_no,
                             s.to_string().c_str());
    }
    if (!v.is_object()) {
      return Status::corrupt("audit line %zu is not an object", line_no);
    }
    const std::string type = v.string_or("type", "");
    if (type == "rollout") {
      accumulate_rollout(v, out);
      ++records;
    } else if (type == "iteration") {
      accumulate_iteration(v, out);
      ++records;
    } else if (type == "flow") {
      accumulate_flow(v, out);
      ++records;
    }
    // Unknown types are skipped: newer writers stay loadable.
  }
  // A run that produced no records at all is indistinguishable from a file
  // truncated to nothing — either way there is nothing to report on, and
  // treating it as success would let a broken run masquerade as a clean one.
  if (records == 0) {
    return Status::corrupt(
        "audit stream has no records (empty or truncated file)");
  }
  out.has_audit = true;
  return Status();
}

Status parse_bench_json(const std::string& text, RunReport& out) {
  JsonValue doc;
  RLCCD_TRY(JsonValue::parse(text, doc));
  if (!doc.is_object()) {
    return Status::corrupt("bench document is not a JSON object");
  }
  const std::string bench = doc.string_or("bench", "");
  if (bench.empty()) {
    return Status::corrupt("bench document has no \"bench\" name");
  }
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Status::corrupt("bench document has no \"metrics\" object");
  }
  for (const auto& [name, value] : metrics->object_items()) {
    const std::string key = bench + "." + name;
    auto it = std::find_if(
        out.bench_metrics.begin(), out.bench_metrics.end(),
        [&](const auto& m) { return m.first == key; });
    if (it != out.bench_metrics.end()) {
      it->second = value.number_value();
    } else {
      out.bench_metrics.emplace_back(key, value.number_value());
    }
  }
  std::sort(out.bench_metrics.begin(), out.bench_metrics.end());
  out.has_bench = true;
  return Status();
}

Status parse_chrome_trace_json(const std::string& text, RunReport& out) {
  JsonValue doc;
  RLCCD_TRY(JsonValue::parse(text, doc));
  if (!doc.is_object()) {
    return Status::corrupt("trace document is not a JSON object");
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::corrupt("trace document has no \"traceEvents\" array");
  }
  auto row_for = [&](int pid) -> RunReport::TracePidRow& {
    for (RunReport::TracePidRow& r : out.trace_pids) {
      if (r.pid == pid) return r;
    }
    RunReport::TracePidRow r;
    r.pid = pid;
    out.trace_pids.push_back(std::move(r));
    return out.trace_pids.back();
  };
  for (const JsonValue& ev : events->array_items()) {
    if (!ev.is_object()) {
      return Status::corrupt("trace event is not a JSON object");
    }
    const int pid = static_cast<int>(ev.number_or("pid", 0.0));
    const std::string ph = ev.string_or("ph", "");
    if (ph == "M") {
      // process_name metadata names the pid row.
      if (ev.string_or("name", "") == "process_name") {
        const JsonValue* args = ev.find("args");
        if (args != nullptr && args->is_object()) {
          row_for(pid).name = args->string_or("name", "");
        }
      }
      continue;
    }
    if (ph != "X" && ph != "i") continue;  // tolerate richer traces
    RunReport::TracePidRow& row = row_for(pid);
    const double ts = ev.number_or("ts", 0.0);
    const double end = ts + std::max(0.0, ev.number_or("dur", 0.0));
    if (row.events == 0 || ts < row.first_ts_us) row.first_ts_us = ts;
    if (row.events == 0 || end > row.last_ts_us) row.last_ts_us = end;
    row.events += 1;
    out.trace_events += 1;
  }
  std::sort(out.trace_pids.begin(), out.trace_pids.end(),
            [](const auto& a, const auto& b) { return a.pid < b.pid; });
  out.has_trace = true;
  return Status();
}

Status load_run(const std::string& path, RunReport& out) {
  out = RunReport{};
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    const std::string metrics_path = path + "/metrics.json";
    const std::string audit_path = path + "/audit.jsonl";
    bool loaded = false;
    if (std::filesystem::exists(metrics_path, ec)) {
      std::string text;
      RLCCD_TRY(read_file(metrics_path, text));
      RLCCD_TRY(parse_metrics_json(text, out).with_context(metrics_path));
      loaded = true;
    }
    if (std::filesystem::exists(audit_path, ec)) {
      std::string text;
      RLCCD_TRY(read_file(audit_path, text));
      RLCCD_TRY(parse_audit_jsonl(text, out).with_context(audit_path));
      loaded = true;
    }
    // Bench baselines: every BENCH_*.json in the directory, in sorted order
    // so duplicate metric names resolve deterministically.
    std::vector<std::string> bench_paths;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          name.size() > 5 && name.substr(name.size() - 5) == ".json") {
        bench_paths.push_back(entry.path().string());
      }
    }
    std::sort(bench_paths.begin(), bench_paths.end());
    for (const std::string& bp : bench_paths) {
      std::string text;
      RLCCD_TRY(read_file(bp, text));
      RLCCD_TRY(parse_bench_json(text, out).with_context(bp));
      loaded = true;
    }
    // Stitched Chrome traces (the serve daemon's trace-<job>.json), sorted
    // so multi-job workspaces summarize deterministically.
    std::vector<std::string> trace_paths;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("trace", 0) == 0 && name.size() > 5 &&
          name.substr(name.size() - 5) == ".json") {
        trace_paths.push_back(entry.path().string());
      }
    }
    std::sort(trace_paths.begin(), trace_paths.end());
    for (const std::string& tp : trace_paths) {
      std::string text;
      RLCCD_TRY(read_file(tp, text));
      RLCCD_TRY(parse_chrome_trace_json(text, out).with_context(tp));
      loaded = true;
    }
    if (!loaded) {
      return Status::not_found(
          "%s has no metrics.json, audit.jsonl, BENCH_*.json or "
          "trace*.json",
          path.c_str());
    }
    return Status();
  }
  std::string text;
  RLCCD_TRY(read_file(path, text));
  // Sniff: a metrics document is one JSON object with a "counters" or
  // "spans" key, a bench document has "bench" + "metrics", a Chrome trace
  // has "traceEvents"; anything else is treated as audit JSONL.
  JsonValue doc;
  if (JsonValue::parse(text, doc).ok() && doc.is_object()) {
    if (doc.find("counters") != nullptr || doc.find("spans") != nullptr) {
      return parse_metrics_json(text, out).with_context(path);
    }
    if (doc.find("bench") != nullptr && doc.find("metrics") != nullptr) {
      return parse_bench_json(text, out).with_context(path);
    }
    if (doc.find("traceEvents") != nullptr) {
      return parse_chrome_trace_json(text, out).with_context(path);
    }
  }
  return parse_audit_jsonl(text, out).with_context(path);
}

std::string render_text_report(const RunReport& report) {
  std::string out;
  if (report.has_metrics) {
    std::vector<SpanProfileRow> flat = span_profile(report.spans);
    std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
      return a.total_sec > b.total_sec;
    });
    append_line(out, "== hot paths (by total wall-clock) ==");
    append_line(out, "%-40s %8s %12s %12s", "span path", "count", "total_s",
                "excl_s");
    const std::size_t n = std::min<std::size_t>(flat.size(), 12);
    for (std::size_t i = 0; i < n; ++i) {
      append_line(out, "%-40s %8llu %12.3f %12.3f", flat[i].path.c_str(),
                  static_cast<unsigned long long>(flat[i].count),
                  flat[i].total_sec, flat[i].self_sec);
    }
    const std::uint64_t runs = report.flow_runs();
    if (runs > 0) {
      append_line(out, "flow runs: %llu, %.3f s/run",
                  static_cast<unsigned long long>(runs),
                  report.flow_total_sec() / static_cast<double>(runs));
    }
    out += '\n';
  }
  if (!report.iterations.empty()) {
    append_line(out, "== TNS trajectory / entropy trend ==");
    append_line(out, "%5s %5s %12s %12s %12s %9s %9s", "iter", "surv",
                "mean_tns", "best_tns", "mean_reward", "entropy", "|grad|");
    for (const auto& p : report.iterations) {
      append_line(out, "%5d %5d %12.3f %12.3f %12.4f %9.4f %9.4f",
                  p.iteration, p.survivors, p.mean_tns, p.best_tns,
                  p.mean_reward, p.mean_entropy, p.grad_norm);
    }
    out += '\n';
  }
  if (!report.endpoint_freq.empty()) {
    std::vector<RunReport::EndpointFrequency> top = report.endpoint_freq;
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.picked != b.picked) return a.picked > b.picked;
      return a.endpoint < b.endpoint;
    });
    append_line(out, "== endpoint pick frequency (top 15) ==");
    append_line(out, "%10s %8s %8s", "endpoint", "picked", "masked");
    const std::size_t n = std::min<std::size_t>(top.size(), 15);
    for (std::size_t i = 0; i < n; ++i) {
      append_line(out, "%10u %8llu %8llu", top[i].endpoint,
                  static_cast<unsigned long long>(top[i].picked),
                  static_cast<unsigned long long>(top[i].masked));
    }
    out += '\n';
  }
  if (report.has_bench) {
    append_line(out, "== bench metrics ==");
    for (const auto& [name, value] : report.bench_metrics) {
      append_line(out, "%-40s %14.4f", name.c_str(), value);
    }
    out += '\n';
  }
  if (report.has_trace) {
    append_line(out, "== stitched trace ==");
    append_line(out, "%8s %-32s %8s %12s %12s", "pid", "process", "events",
                "first_ms", "last_ms");
    for (const auto& row : report.trace_pids) {
      append_line(out, "%8d %-32s %8llu %12.3f %12.3f", row.pid,
                  row.name.empty() ? "?" : row.name.c_str(),
                  static_cast<unsigned long long>(row.events),
                  row.first_ts_us / 1e3, row.last_ts_us / 1e3);
    }
    append_line(out, "trace events: %llu across %zu pids",
                static_cast<unsigned long long>(report.trace_events),
                report.trace_pids.size());
    out += '\n';
  }
  if (report.rollouts > 0) {
    append_line(out, "rollouts: %llu (%llu poisoned, %llu cancelled)",
                static_cast<unsigned long long>(report.rollouts),
                static_cast<unsigned long long>(report.poisoned_rollouts),
                static_cast<unsigned long long>(report.cancelled_rollouts));
  }
  if (!report.flows.empty()) {
    append_line(out, "== final flows ==");
    for (const auto& f : report.flows) {
      append_line(out,
                  "%-8s WNS %9.3f TNS %12.3f NVE %6llu  endpoints improved "
                  "%zu/%zu",
                  f.label.c_str(), f.wns, f.tns,
                  static_cast<unsigned long long>(f.nve), f.improved,
                  f.outcomes);
    }
  }
  if (out.empty()) out = "(empty run: no metrics, no audit)\n";
  return out;
}

// -- diffing ------------------------------------------------------------------

bool ReportDiff::regressed() const {
  for (const Entry& e : entries) {
    if (e.regressed) return true;
  }
  return false;
}

std::string ReportDiff::to_text() const {
  std::string out;
  append_line(out, "%-24s %14s %14s %9s  %s", "metric", "base", "candidate",
              "delta%", "verdict");
  for (const Entry& e : entries) {
    append_line(out, "%-24s %14.4f %14.4f %+8.2f%%  %s", e.name.c_str(),
                e.base, e.candidate, e.delta_pct,
                e.regressed ? "REGRESSED" : (e.checked ? "ok" : "-"));
  }
  append_line(out, "verdict: %s", regressed() ? "REGRESSED" : "ok");
  return out;
}

std::string ReportDiff::to_json() const {
  std::string out = "{\"regressed\":";
  out += regressed() ? "true" : "false";
  out += ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i) out += ',';
    out += "{\"name\":\"";
    json_escape(out, e.name);
    out += "\",\"base\":";
    append_json_number(out, e.base);
    out += ",\"candidate\":";
    append_json_number(out, e.candidate);
    out += ",\"delta_pct\":";
    append_json_number(out, e.delta_pct);
    out += ",\"checked\":";
    out += e.checked ? "true" : "false";
    out += ",\"regressed\":";
    out += e.regressed ? "true" : "false";
    out += '}';
  }
  out += "]}";
  return out;
}

ReportDiff diff_runs(const RunReport& base, const RunReport& candidate,
                     const DiffThresholds& thresholds) {
  ReportDiff diff;
  auto pct_of = [](double delta, double ref) {
    const double denom = std::abs(ref);
    return denom > 1e-12 ? 100.0 * delta / denom : 0.0;
  };

  // Mean wall-clock per flow run: the flow is the unit of optimization work,
  // so per-run time is comparable even when the runs did different numbers
  // of rollouts.
  if (base.flow_runs() > 0 && candidate.flow_runs() > 0) {
    ReportDiff::Entry e;
    e.name = "flow.sec_per_run";
    e.base = base.flow_total_sec() / static_cast<double>(base.flow_runs());
    e.candidate =
        candidate.flow_total_sec() / static_cast<double>(candidate.flow_runs());
    e.delta_pct = pct_of(e.candidate - e.base, e.base);
    e.checked = thresholds.max_runtime_regress_pct >= 0.0;
    e.regressed = e.checked && e.delta_pct > thresholds.max_runtime_regress_pct;
    diff.entries.push_back(std::move(e));
  }

  // Final TNS (more negative = worse timing = regression).
  const double base_tns = base.final_tns();
  const double cand_tns = candidate.final_tns();
  if (std::isfinite(base_tns) && std::isfinite(cand_tns)) {
    ReportDiff::Entry e;
    e.name = "final_tns";
    e.base = base_tns;
    e.candidate = cand_tns;
    e.delta_pct = pct_of(cand_tns - base_tns, base_tns);
    e.checked = thresholds.max_tns_regress_pct >= 0.0;
    e.regressed =
        e.checked &&
        cand_tns < base_tns -
                       std::abs(base_tns) * thresholds.max_tns_regress_pct / 100.0;
    diff.entries.push_back(std::move(e));
  }

  // Informational rows (never fail the diff).
  auto info = [&](const char* name, double b, double c) {
    ReportDiff::Entry e;
    e.name = name;
    e.base = b;
    e.candidate = c;
    e.delta_pct = pct_of(c - b, b);
    diff.entries.push_back(std::move(e));
  };
  if (base.has_metrics && candidate.has_metrics) {
    info("counters.sta.full_runs",
         static_cast<double>(base.counter("sta.full_runs")),
         static_cast<double>(candidate.counter("sta.full_runs")));
    info("counters.trace.events_dropped",
         static_cast<double>(base.counter("trace.events_dropped")),
         static_cast<double>(candidate.counter("trace.events_dropped")));
  }
  if (base.has_audit && candidate.has_audit) {
    info("rollouts", static_cast<double>(base.rollouts),
         static_cast<double>(candidate.rollouts));
    info("iterations", static_cast<double>(base.iterations.size()),
         static_cast<double>(candidate.iterations.size()));
    if (!base.iterations.empty() && !candidate.iterations.empty()) {
      info("final_mean_entropy", base.iterations.back().mean_entropy,
           candidate.iterations.back().mean_entropy);
    }
  }
  if (base.has_trace && candidate.has_trace) {
    // Informational only: event counts vary with timing, but a pid-count
    // jump (extra attempt rows) is the kind of change a reviewer wants
    // surfaced.
    info("trace.events", static_cast<double>(base.trace_events),
         static_cast<double>(candidate.trace_events));
    info("trace.pids", static_cast<double>(base.trace_pids.size()),
         static_cast<double>(candidate.trace_pids.size()));
  }

  // Bench metrics present in both runs. Work ratios (pin-update
  // reductions and cache hit rates, higher is better) are fixed by the
  // benches' seeds and fail the diff when the candidate drops more than the
  // threshold below the baseline; speedups and absolute times are
  // wall-clock readings and stay informational.
  if (base.has_bench && candidate.has_bench) {
    auto is_work_ratio = [](const std::string& name) {
      return name.find("reduction") != std::string::npos ||
             name.find("hit_rate") != std::string::npos;
    };
    for (const auto& metric : base.bench_metrics) {
      const std::string& name = metric.first;
      const double base_value = metric.second;
      const auto it = std::find_if(
          candidate.bench_metrics.begin(), candidate.bench_metrics.end(),
          [&](const auto& m) { return m.first == name; });
      if (it == candidate.bench_metrics.end()) continue;
      ReportDiff::Entry e;
      e.name = name;
      e.base = base_value;
      e.candidate = it->second;
      e.delta_pct = pct_of(e.candidate - e.base, e.base);
      if (is_work_ratio(name)) {
        e.checked = thresholds.max_work_ratio_regress_pct >= 0.0;
        e.regressed =
            e.checked && e.delta_pct < -thresholds.max_work_ratio_regress_pct;
      }
      diff.entries.push_back(std::move(e));
    }
  }
  return diff;
}

}  // namespace rlccd
