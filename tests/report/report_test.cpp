#include "report/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/json.h"
#include "common/telemetry.h"
#include "helpers/temp_path.h"
#include "rl/audit.h"

namespace rlccd {
namespace {

// -- metrics parsing ----------------------------------------------------------

TEST(ReportMetrics, ParsesRegistryExportRoundTrip) {
  // Feed the parser the real exporter's output, not a handwritten imitation.
  MetricsRegistry::global().counter("test.report_counter").add(17);
  TelemetryScope scope;
  {
    RLCCD_SPAN("report_outer");
    RLCCD_SPAN("flow");
  }
  RunReport report;
  ASSERT_TRUE(parse_metrics_json(scope.snapshot().to_json(), report).ok());
  EXPECT_TRUE(report.has_metrics);
  EXPECT_FALSE(report.has_audit);

  const SpanNode* outer = report.spans.find_child("report_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(report.flow_runs(), 1u) << "nested flow spans are aggregated";
  EXPECT_GE(report.flow_total_sec(), 0.0);
}

TEST(ReportMetrics, CounterLookup) {
  RunReport report;
  ASSERT_TRUE(parse_metrics_json(
                  R"({"counters":{"sta.full_runs":42},"spans":[]})", report)
                  .ok());
  EXPECT_EQ(report.counter("sta.full_runs"), 42u);
  EXPECT_EQ(report.counter("absent"), 0u);
}

TEST(ReportMetrics, RejectsStructurallyBrokenJson) {
  RunReport report;
  EXPECT_FALSE(parse_metrics_json("{\"counters\":", report).ok());
}

// -- audit parsing ------------------------------------------------------------

// Serialize real audit records so the parser is tested against the actual
// writer format, including the %.17g doubles.
std::string sample_audit_jsonl() {
  SelectionAudit audit;
  AuditStep s1;
  s1.chosen = 3;
  s1.slack = -0.5;
  s1.masked = {{5, 0.42}, {6, 0.31}};
  AuditStep s2;
  s2.chosen = 5;  // picked later even though masked earlier in s1
  audit.steps = {s1, s2};

  RolloutAuditRecord rollout;
  rollout.iteration = 0;
  rollout.worker = 0;
  rollout.tns = -20.0;
  rollout.flow_ran = true;
  rollout.audit = &audit;

  IterationAuditRecord it0;
  it0.iteration = 0;
  it0.survivors = 2;
  it0.best_tns = -15.0;
  it0.mean_entropy = 2.5;
  IterationAuditRecord it1 = it0;
  it1.iteration = 1;
  it1.best_tns = -12.0;
  it1.mean_entropy = 2.0;

  FlowAuditRecord fdefault;
  fdefault.label = "default";
  fdefault.tns = -14.0;
  FlowAuditRecord frl;
  frl.label = "rl";
  frl.wns = -0.5;
  frl.tns = -10.0;
  frl.nve = 7;
  frl.outcomes.push_back({11, -0.6, -0.2});  // improved
  frl.outcomes.push_back({12, -0.3, -0.4});  // worsened

  std::string lines;
  lines += rollout.to_json() + "\n";
  lines += it0.to_json() + "\n";
  lines += it1.to_json() + "\n";
  lines += fdefault.to_json() + "\n";
  lines += frl.to_json() + "\n";
  lines += R"({"type":"future_record","ignored":true})" "\n";
  return lines;
}

// An audit stream with zero records — empty file, whitespace only, or only
// unknown record types — must fail loudly: rlccd_report would otherwise
// summarize a broken run as a clean empty one.
TEST(ReportAudit, EmptyStreamIsAnError) {
  RunReport report;
  Status s = parse_audit_jsonl("", report);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  EXPECT_NE(s.to_string().find("no records"), std::string::npos)
      << s.to_string();
  EXPECT_FALSE(report.has_audit);
}

TEST(ReportAudit, WhitespaceOnlyStreamIsAnError) {
  RunReport report;
  EXPECT_FALSE(parse_audit_jsonl("\n  \n\t\r\n", report).ok());
  EXPECT_FALSE(report.has_audit);
}

TEST(ReportAudit, StreamTruncatedMidRecordIsAnError) {
  const std::string full = sample_audit_jsonl();
  // Cut inside the final record: the last line no longer parses as JSON.
  const std::string truncated = full.substr(0, full.size() - 30);
  RunReport report;
  Status s = parse_audit_jsonl(truncated, report);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorrupt);
  EXPECT_NE(s.to_string().find("audit line"), std::string::npos)
      << "diagnostic names the broken line: " << s.to_string();
}

TEST(ReportAudit, LoadRunSurfacesEmptyAuditFileWithPath) {
  const std::string dir = testing::temp_path("report_empty_audit");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/audit.jsonl").close();  // zero bytes
  RunReport report;
  Status s = load_run(dir, report);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.to_string().find("audit.jsonl"), std::string::npos)
      << "diagnostic names the file: " << s.to_string();
  std::filesystem::remove_all(dir);
}

TEST(ReportAudit, LoadRunFailsOnMissingPath) {
  RunReport report;
  EXPECT_FALSE(load_run("/nonexistent/rlccd/run", report).ok());
}

TEST(ReportAudit, AccumulatesRecordsFromWriterFormat) {
  RunReport report;
  ASSERT_TRUE(parse_audit_jsonl(sample_audit_jsonl(), report).ok());
  EXPECT_TRUE(report.has_audit);
  EXPECT_EQ(report.rollouts, 1u);
  ASSERT_EQ(report.iterations.size(), 2u);
  EXPECT_DOUBLE_EQ(report.iterations[1].best_tns, -12.0);
  EXPECT_DOUBLE_EQ(report.iterations[1].mean_entropy, 2.0);

  // Pick/mask frequency: endpoint 3 picked once; 5 masked once AND picked
  // once; 6 masked once.
  auto freq = [&](std::uint32_t ep) -> const RunReport::EndpointFrequency* {
    for (const auto& f : report.endpoint_freq) {
      if (f.endpoint == ep) return &f;
    }
    return nullptr;
  };
  ASSERT_NE(freq(3), nullptr);
  EXPECT_EQ(freq(3)->picked, 1u);
  EXPECT_EQ(freq(3)->masked, 0u);
  ASSERT_NE(freq(5), nullptr);
  EXPECT_EQ(freq(5)->picked, 1u);
  EXPECT_EQ(freq(5)->masked, 1u);
  ASSERT_NE(freq(6), nullptr);
  EXPECT_EQ(freq(6)->masked, 1u);

  // Flow outcomes with improved counts.
  ASSERT_EQ(report.flows.size(), 2u);
  EXPECT_EQ(report.flows[1].label, "rl");
  EXPECT_EQ(report.flows[1].outcomes, 2u);
  EXPECT_EQ(report.flows[1].improved, 1u);

  // final_tns prefers the "rl" flow record.
  EXPECT_DOUBLE_EQ(report.final_tns(), -10.0);
}

TEST(ReportAudit, FinalTnsFallsBackToLastIterationThenNan) {
  RunReport no_flow;
  IterationAuditRecord it;
  it.iteration = 0;
  it.best_tns = -33.0;
  ASSERT_TRUE(parse_audit_jsonl(it.to_json() + "\n", no_flow).ok());
  EXPECT_DOUBLE_EQ(no_flow.final_tns(), -33.0);

  RunReport empty;
  EXPECT_TRUE(std::isnan(empty.final_tns()));
}

// -- run loading --------------------------------------------------------------

TEST(ReportLoad, LoadsDirectoryAndSniffsSingleFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = testing::temp_path("report_load_test");
  fs::create_directories(dir);
  {
    std::ofstream(dir / "metrics.json")
        << R"({"counters":{"sta.full_runs":5},"spans":[]})";
    std::ofstream(dir / "audit.jsonl") << sample_audit_jsonl();
  }

  RunReport both;
  ASSERT_TRUE(load_run(dir.string(), both).ok());
  EXPECT_TRUE(both.has_metrics);
  EXPECT_TRUE(both.has_audit);
  EXPECT_EQ(both.counter("sta.full_runs"), 5u);
  EXPECT_EQ(both.rollouts, 1u);

  RunReport metrics_only;
  ASSERT_TRUE(load_run((dir / "metrics.json").string(), metrics_only).ok());
  EXPECT_TRUE(metrics_only.has_metrics);
  EXPECT_FALSE(metrics_only.has_audit);

  RunReport audit_only;
  ASSERT_TRUE(load_run((dir / "audit.jsonl").string(), audit_only).ok());
  EXPECT_FALSE(audit_only.has_metrics);
  EXPECT_TRUE(audit_only.has_audit);

  RunReport missing;
  EXPECT_FALSE(load_run((dir / "nothing_here").string(), missing).ok());
  fs::remove_all(dir);
}

// -- text report --------------------------------------------------------------

TEST(ReportText, RendersEverySection) {
  RunReport report;
  ASSERT_TRUE(parse_metrics_json(
                  R"({"counters":{"sta.full_runs":5},"spans":[)"
                  R"({"name":"flow","count":2,"total_sec":1.0,)"
                  R"("exclusive_sec":1.0,"children":[]}]})",
                  report)
                  .ok());
  ASSERT_TRUE(parse_audit_jsonl(sample_audit_jsonl(), report).ok());
  const std::string text = render_text_report(report);
  EXPECT_NE(text.find("hot paths"), std::string::npos) << text;
  EXPECT_NE(text.find("TNS trajectory"), std::string::npos);
  EXPECT_NE(text.find("endpoint pick frequency"), std::string::npos);
  EXPECT_NE(text.find("final flows"), std::string::npos);
  EXPECT_NE(text.find("rollouts: 1"), std::string::npos);
}

// -- self-time profile --------------------------------------------------------

TEST(ReportProfile, RowsSortBySelfTimeWithTheirRootsShare) {
  RunReport report;
  ASSERT_TRUE(parse_metrics_json(
                  R"({"counters":{},"spans":[)"
                  R"({"name":"train","count":1,"total_sec":10.0,"children":[)"
                  R"({"name":"iteration","count":4,"total_sec":8.0,)"
                  R"("children":[{"name":"rollout_wait","count":4,)"
                  R"("total_sec":7.5,"children":[]}]}]},)"
                  R"({"name":"rollout","count":8,"total_sec":20.0,"children":[)"
                  R"({"name":"policy_encode","count":80,"total_sec":6.0,)"
                  R"("children":[]},)"
                  R"({"name":"policy_backward","count":80,"total_sec":12.0,)"
                  R"("children":[]}]}]})",
                  report)
                  .ok());
  const std::vector<SpanProfileRow> rows = span_profile(report.spans);
  struct Want {
    const char* path;
    std::uint64_t count;
    double total, self, pct;
  };
  // train and rollout tie at 2 s of self time and keep tree order.
  const Want want[] = {
      {"rollout/policy_backward", 80, 12.0, 12.0, 60.0},
      {"train/iteration/rollout_wait", 4, 7.5, 7.5, 75.0},
      {"rollout/policy_encode", 80, 6.0, 6.0, 30.0},
      {"train", 1, 10.0, 2.0, 20.0},
      {"rollout", 8, 20.0, 2.0, 10.0},
      {"train/iteration", 4, 8.0, 0.5, 5.0},
  };
  ASSERT_EQ(rows.size(), std::size(want));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(want[i].path);
    EXPECT_EQ(rows[i].path, want[i].path);
    EXPECT_EQ(rows[i].count, want[i].count);
    EXPECT_DOUBLE_EQ(rows[i].total_sec, want[i].total);
    EXPECT_DOUBLE_EQ(rows[i].self_sec, want[i].self);
    EXPECT_DOUBLE_EQ(rows[i].self_pct_of_root, want[i].pct);
  }

  const std::string text = render_profile(report);
  EXPECT_NE(text.find("self-time profile"), std::string::npos) << text;
  EXPECT_LT(text.find("rollout/policy_backward"),
            text.find("rollout/policy_encode"))
      << text;
}

TEST(ReportProfile, EmptyTreeHasNoRows) {
  RunReport report;
  ASSERT_TRUE(
      parse_metrics_json(R"({"counters":{},"spans":[]})", report).ok());
  EXPECT_TRUE(span_profile(report.spans).empty());
}

// -- diffing ------------------------------------------------------------------

RunReport run_with(double flow_sec, std::uint64_t flow_count, double tns) {
  RunReport r;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                R"({"counters":{},"spans":[{"name":"flow","count":%llu,)"
                R"("total_sec":%f,"exclusive_sec":%f,"children":[]}]})",
                static_cast<unsigned long long>(flow_count), flow_sec,
                flow_sec);
  EXPECT_TRUE(parse_metrics_json(buf, r).ok());
  FlowAuditRecord flow;
  flow.label = "rl";
  flow.tns = tns;
  EXPECT_TRUE(parse_audit_jsonl(flow.to_json() + "\n", r).ok());
  return r;
}

TEST(ReportDiffTest, IdenticalRunsPass) {
  RunReport base = run_with(1.0, 10, -10.0);
  ReportDiff diff = diff_runs(base, base, DiffThresholds{});
  EXPECT_FALSE(diff.regressed());
  EXPECT_NE(diff.to_text().find("verdict: ok"), std::string::npos);
}

TEST(ReportDiffTest, InjectedTnsRegressionFails) {
  RunReport base = run_with(1.0, 10, -10.0);
  RunReport worse = run_with(1.0, 10, -14.0);  // 40% worse than -10
  ReportDiff diff = diff_runs(base, worse, DiffThresholds{});
  EXPECT_TRUE(diff.regressed());
  EXPECT_NE(diff.to_text().find("REGRESSED"), std::string::npos);
  // An equally-sized improvement must not trip the check.
  RunReport better = run_with(1.0, 10, -6.0);
  EXPECT_FALSE(diff_runs(base, better, DiffThresholds{}).regressed());
}

TEST(ReportDiffTest, RuntimeRegressionComparesPerFlowSeconds) {
  RunReport base = run_with(1.0, 10, -10.0);  // 0.1 s/run
  // Same per-run cost with more runs must pass...
  RunReport more_runs = run_with(2.0, 20, -10.0);
  EXPECT_FALSE(diff_runs(base, more_runs, DiffThresholds{}).regressed());
  // ...while a 50% per-run slowdown fails the default 10% threshold.
  RunReport slower = run_with(1.5, 10, -10.0);
  EXPECT_TRUE(diff_runs(base, slower, DiffThresholds{}).regressed());
}

TEST(ReportDiffTest, NegativeThresholdDisablesCheck) {
  RunReport base = run_with(1.0, 10, -10.0);
  RunReport slower_and_worse = run_with(3.0, 10, -20.0);
  DiffThresholds off;
  off.max_runtime_regress_pct = -1.0;
  off.max_tns_regress_pct = -1.0;
  EXPECT_FALSE(diff_runs(base, slower_and_worse, off).regressed());
}

TEST(ReportDiffTest, JsonDiffIsMachineReadable) {
  RunReport base = run_with(1.0, 10, -10.0);
  RunReport worse = run_with(1.0, 10, -14.0);
  ReportDiff diff = diff_runs(base, worse, DiffThresholds{});

  JsonValue doc;
  ASSERT_TRUE(JsonValue::parse(diff.to_json(), doc).ok());
  EXPECT_TRUE(doc.bool_or("regressed", false));
  const JsonValue* entries = doc.find("entries");
  ASSERT_NE(entries, nullptr);
  bool found_tns = false;
  for (const JsonValue& e : entries->array_items()) {
    if (e.string_or("name", "") != "final_tns") continue;
    found_tns = true;
    EXPECT_TRUE(e.bool_or("checked", false));
    EXPECT_TRUE(e.bool_or("regressed", false));
    EXPECT_DOUBLE_EQ(e.number_or("base", 0.0), -10.0);
    EXPECT_DOUBLE_EQ(e.number_or("candidate", 0.0), -14.0);
  }
  EXPECT_TRUE(found_tns);
}

// -- bench documents ----------------------------------------------------------

TEST(ReportBench, ParsesAndPrefixesMetrics) {
  RunReport r;
  ASSERT_TRUE(parse_bench_json(
                  R"({"bench":"sta_kernels","metrics":)"
                  R"({"speedup_t8":2.5,"full_pass_t1_ms":4.1}})",
                  r)
                  .ok());
  ASSERT_TRUE(parse_bench_json(
                  R"({"bench":"incremental","metrics":{"flow_speedup":3.0}})",
                  r)
                  .ok());
  EXPECT_TRUE(r.has_bench);
  ASSERT_EQ(r.bench_metrics.size(), 3u);
  // Accumulated across documents, prefixed, and sorted by name.
  EXPECT_EQ(r.bench_metrics[0].first, "incremental.flow_speedup");
  EXPECT_EQ(r.bench_metrics[1].first, "sta_kernels.full_pass_t1_ms");
  EXPECT_EQ(r.bench_metrics[2].first, "sta_kernels.speedup_t8");
  EXPECT_DOUBLE_EQ(r.bench_metrics[2].second, 2.5);

  // Re-parsing the same bench keeps the last value instead of duplicating.
  ASSERT_TRUE(parse_bench_json(
                  R"({"bench":"incremental","metrics":{"flow_speedup":9.0}})",
                  r)
                  .ok());
  ASSERT_EQ(r.bench_metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(r.bench_metrics[0].second, 9.0);

  const std::string text = render_text_report(r);
  EXPECT_NE(text.find("bench metrics"), std::string::npos) << text;
  EXPECT_NE(text.find("sta_kernels.speedup_t8"), std::string::npos);
}

TEST(ReportBench, RejectsMalformedDocuments) {
  RunReport r;
  EXPECT_FALSE(parse_bench_json("[]", r).ok());
  EXPECT_FALSE(parse_bench_json(R"({"metrics":{"a":1}})", r).ok());
  EXPECT_FALSE(parse_bench_json(R"({"bench":"x"})", r).ok());
  EXPECT_FALSE(r.has_bench);
}

TEST(ReportBench, LoadRunPicksUpBenchFilesInDirectory) {
  namespace fs = std::filesystem;
  const fs::path dir = testing::temp_path("report_bench_test");
  fs::create_directories(dir);
  std::ofstream(dir / "BENCH_sta_kernels.json")
      << R"({"bench":"sta_kernels","metrics":{"speedup_t8":2.0}})";
  std::ofstream(dir / "BENCH_incremental.json")
      << R"({"bench":"incremental","metrics":{"flow_speedup":3.0}})";
  std::ofstream(dir / "notes.txt") << "ignored";

  RunReport r;
  ASSERT_TRUE(load_run(dir.string(), r).ok());
  EXPECT_TRUE(r.has_bench);
  ASSERT_EQ(r.bench_metrics.size(), 2u);
  EXPECT_EQ(r.bench_metrics[0].first, "incremental.flow_speedup");
  EXPECT_EQ(r.bench_metrics[1].first, "sta_kernels.speedup_t8");

  // A single bench file is sniffed by content, like metrics/audit files.
  RunReport single;
  ASSERT_TRUE(
      load_run((dir / "BENCH_sta_kernels.json").string(), single).ok());
  EXPECT_TRUE(single.has_bench);
  fs::remove_all(dir);
}

RunReport bench_run(double speedup, double pass_ms) {
  RunReport r;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                R"({"bench":"sta_kernels","metrics":)"
                R"({"speedup_t8":%f,"full_pass_t1_ms":%f}})",
                speedup, pass_ms);
  EXPECT_TRUE(parse_bench_json(buf, r).ok());
  return r;
}

TEST(ReportBench, DiffChecksRatiosButNotAbsoluteTimes) {
  RunReport base = bench_run(2.0, 4.0);
  // Speedup down 50% (past the 25% threshold), wall time 3x slower.
  ReportDiff bad = diff_runs(base, bench_run(1.0, 12.0), DiffThresholds{});
  EXPECT_TRUE(bad.regressed());
  bool saw_speedup = false, saw_ms = false;
  for (const ReportDiff::Entry& e : bad.entries) {
    if (e.name == "sta_kernels.speedup_t8") {
      saw_speedup = true;
      EXPECT_TRUE(e.checked);
      EXPECT_TRUE(e.regressed);
    }
    if (e.name == "sta_kernels.full_pass_t1_ms") {
      saw_ms = true;  // informational: hardware-dependent, never checked
      EXPECT_FALSE(e.checked);
      EXPECT_FALSE(e.regressed);
    }
  }
  EXPECT_TRUE(saw_speedup);
  EXPECT_TRUE(saw_ms);

  // Within threshold (-10%) or improving passes.
  EXPECT_FALSE(diff_runs(base, bench_run(1.8, 4.0), DiffThresholds{})
                   .regressed());
  EXPECT_FALSE(diff_runs(base, bench_run(3.0, 2.0), DiffThresholds{})
                   .regressed());

  // Negative threshold disables the ratio check entirely.
  DiffThresholds off;
  off.max_speedup_regress_pct = -1.0;
  EXPECT_FALSE(diff_runs(base, bench_run(0.5, 40.0), off).regressed());
}

RunReport cache_run(double hit_rate, double cached_ms) {
  RunReport r;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                R"({"bench":"rollout_cache","metrics":)"
                R"({"replay_hit_rate":%f,"replay_cached_ms":%f}})",
                hit_rate, cached_ms);
  EXPECT_TRUE(parse_bench_json(buf, r).ok());
  return r;
}

TEST(ReportBench, DiffGuardsCacheHitRateAsRatio) {
  // hit_rate metrics join speedups/reductions in the CI-guarded ratio
  // family: a collapsing flow-cache hit rate fails the perf diff even when
  // wall-clock stays flat; the absolute cached time stays informational.
  RunReport base = cache_run(0.75, 8.0);
  ReportDiff bad = diff_runs(base, cache_run(0.25, 8.0), DiffThresholds{});
  EXPECT_TRUE(bad.regressed());
  bool saw_rate = false, saw_ms = false;
  for (const ReportDiff::Entry& e : bad.entries) {
    if (e.name == "rollout_cache.replay_hit_rate") {
      saw_rate = true;
      EXPECT_TRUE(e.checked);
      EXPECT_TRUE(e.regressed);
    }
    if (e.name == "rollout_cache.replay_cached_ms") {
      saw_ms = true;
      EXPECT_FALSE(e.checked);
    }
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_ms);

  EXPECT_FALSE(diff_runs(base, cache_run(0.70, 80.0), DiffThresholds{})
                   .regressed());
}

}  // namespace
}  // namespace rlccd
