// Cross-process observability plane, wire layer: the TelemetrySnapshot
// codec, delta computation (snapshot_delta / TelemetryDeltaTracker),
// ObsDelta frame encode/decode with byte-granular truncation rejection,
// merge determinism under permuted arrival order, gauge semantics,
// histogram quantiles, Prometheus exposition grammar, and the central
// metric-name manifest.
#include "common/telemetry_wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "common/metric_names.h"
#include "common/telemetry.h"

namespace rlccd {
namespace {

// A snapshot exercising every section of the codec: counters, gauges, a
// histogram with buckets, and a two-level span tree.
TelemetrySnapshot rich_snapshot() {
  TelemetrySnapshot snap;
  snap.counters.emplace_back("test.alpha", 7);
  snap.counters.emplace_back("test.beta", 1);
  snap.gauges.emplace_back("test.depth", -3);
  MetricsHistogram::Snapshot h;
  h.merge_value(0.5, MetricsHistogram::bucket_index(0.5) -
                         MetricsHistogram::kBias);
  h.merge_value(2.0, MetricsHistogram::bucket_index(2.0) -
                         MetricsHistogram::kBias);
  snap.histograms.emplace_back("test.hist", h);
  SpanNode& flow = snap.spans.child("flow");
  flow.count = 2;
  flow.total_sec = 1.5;
  SpanNode& sta = flow.child("sta");
  sta.count = 8;
  sta.total_sec = 0.25;
  return snap;
}

TEST(TelemetryWire, SnapshotCodecRoundTrip) {
  const TelemetrySnapshot snap = rich_snapshot();
  std::string bytes;
  append_telemetry_snapshot(bytes, snap);

  TelemetrySnapshot back;
  std::size_t offset = 0;
  ASSERT_TRUE(parse_telemetry_snapshot(bytes, offset, back).ok());
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(back.to_json(), snap.to_json());
  EXPECT_EQ(back.counter("test.alpha"), 7u);
  EXPECT_EQ(back.gauge("test.depth"), -3);
  ASSERT_NE(back.histogram("test.hist"), nullptr);
  EXPECT_EQ(back.histogram("test.hist")->count, 2u);
  ASSERT_NE(back.find_span("flow/sta"), nullptr);
  EXPECT_EQ(back.find_span("flow/sta")->count, 8u);
}

TEST(TelemetryWire, ObsDeltaRoundTripAndByteGranularTruncation) {
  ObsDelta d;
  d.seq = 42;
  d.source_pid = 1234;
  d.telemetry = rich_snapshot();
  d.trace_events.push_back({"rollout", 1.0, 0.5, 3});
  d.trace_events.push_back({"mark", 2.0, -1.0, 0});

  const std::string bytes = d.encode();
  ObsDelta back;
  ASSERT_TRUE(back.decode(bytes).ok());
  EXPECT_EQ(back.seq, 42u);
  EXPECT_EQ(back.source_pid, 1234);
  EXPECT_EQ(back.telemetry.to_json(), d.telemetry.to_json());
  ASSERT_EQ(back.trace_events.size(), 2u);
  EXPECT_EQ(back.trace_events[0].name, "rollout");
  EXPECT_LT(back.trace_events[1].dur_sec, 0.0);
  EXPECT_EQ(back.trace_events[0].tid, 3);

  // A torn frame — any strict prefix — must be rejected, never half-applied:
  // this is what keeps a SIGKILL mid-write from corrupting the parent.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ObsDelta torn;
    EXPECT_FALSE(torn.decode(bytes.substr(0, cut)).ok()) << "cut=" << cut;
  }
  // Overlong frames are rejected too.
  ObsDelta overlong;
  EXPECT_FALSE(overlong.decode(bytes + "x").ok());
  // Every other version, v1 included, is rejected up front.
  EXPECT_EQ(ObsDelta::kVersion, 2);
  for (int v = 0; v < 256; ++v) {
    if (v == ObsDelta::kVersion) continue;
    std::string wrong_version = bytes;
    wrong_version[0] = static_cast<char>(v);
    ObsDelta versioned;
    EXPECT_FALSE(versioned.decode(wrong_version).ok()) << "version " << v;
  }
}

TEST(TelemetryWire, SnapshotDeltaSubtractsAndMergeRestores) {
  TelemetrySnapshot base = rich_snapshot();
  TelemetrySnapshot cur = rich_snapshot();
  // Advance: one counter moves, one stays; the gauge moves; two more
  // histogram values; one more flow span.
  cur.counters[0].second += 5;  // test.alpha 7 -> 12
  cur.gauges[0].second = 11;
  MetricsHistogram::Snapshot* h = nullptr;
  for (auto& [name, hist] : cur.histograms) {
    if (name == "test.hist") h = &hist;
  }
  ASSERT_NE(h, nullptr);
  h->merge_value(8.0, MetricsHistogram::bucket_index(8.0) -
                          MetricsHistogram::kBias);
  cur.spans.child("flow").count += 1;
  cur.spans.child("flow").total_sec += 0.5;

  const TelemetrySnapshot delta = snapshot_delta(cur, base);
  EXPECT_EQ(delta.counter("test.alpha"), 5u);
  EXPECT_EQ(delta.counter("test.beta"), 0u) << "unchanged counters drop";
  EXPECT_EQ(delta.gauge("test.depth"), 11);
  ASSERT_NE(delta.histogram("test.hist"), nullptr);
  EXPECT_EQ(delta.histogram("test.hist")->count, 1u);
  ASSERT_NE(delta.find_span("flow"), nullptr);
  EXPECT_EQ(delta.find_span("flow")->count, 1u);
  EXPECT_EQ(delta.find_span("flow")->children.size(), 0u)
      << "unchanged child spans drop";

  // merge(delta) on top of the baseline restores the current increments.
  TelemetrySnapshot merged = base;
  merged.merge(delta);
  EXPECT_EQ(merged.counter("test.alpha"), cur.counter("test.alpha"));
  EXPECT_EQ(merged.gauge("test.depth"), 11);
  EXPECT_EQ(merged.histogram("test.hist")->count, 3u);
  EXPECT_EQ(merged.find_span("flow")->count, 3u);
}

TEST(TelemetryWire, DeltaTrackerShipsOnlyNewIncrements) {
  MetricsRegistry& reg = MetricsRegistry::global();
  MetricsCounter& ctr = reg.counter("test.wire_tracker");
  ctr.add(10);

  TelemetryDeltaTracker tracker;  // baselines the global registry now
  TelemetrySnapshot none = tracker.take();
  EXPECT_EQ(none.counter("test.wire_tracker"), 0u)
      << "pre-baseline values never ship";

  ctr.add(4);
  TelemetrySnapshot first = tracker.take();
  EXPECT_EQ(first.counter("test.wire_tracker"), 4u);
  TelemetrySnapshot second = tracker.take();
  EXPECT_EQ(second.counter("test.wire_tracker"), 0u)
      << "take() advances the baseline";
}

// N workers ship overlapping counter names, histogram buckets and span
// paths; the merged result must not depend on arrival order.
TEST(TelemetryWire, MergeIsOrderIndependentAcrossWorkers) {
  std::vector<TelemetrySnapshot> deltas;
  for (int w = 0; w < 4; ++w) {
    TelemetrySnapshot d;
    d.counters.emplace_back("test.shared", 10 + w);
    if (w % 2 == 0) d.counters.emplace_back("test.even_only", 1);
    MetricsHistogram::Snapshot h;
    const double v = 0.25 * (w + 1);  // overlapping and distinct buckets
    h.merge_value(v, MetricsHistogram::bucket_index(v) -
                         MetricsHistogram::kBias);
    h.merge_value(1.5, MetricsHistogram::bucket_index(1.5) -
                           MetricsHistogram::kBias);
    d.histograms.emplace_back("test.shared_hist", h);
    SpanNode& flow = d.spans.child("flow");
    flow.count = 1;
    flow.total_sec = 0.1 * (w + 1);
    SpanNode& leaf = flow.child(w < 2 ? "sta" : "sizing");
    leaf.count = w + 1;
    leaf.total_sec = 0.01;
    deltas.push_back(std::move(d));
  }

  std::vector<std::size_t> order(deltas.size());
  std::iota(order.begin(), order.end(), 0);
  std::string reference;
  do {
    TelemetrySnapshot merged;
    for (std::size_t i : order) merged.merge(deltas[i]);
    const std::string json = merged.to_json();
    if (reference.empty()) {
      reference = json;
      EXPECT_EQ(merged.counter("test.shared"), 10u + 11 + 12 + 13);
      EXPECT_EQ(merged.counter("test.even_only"), 2u);
      EXPECT_EQ(merged.histogram("test.shared_hist")->count, 8u);
      EXPECT_EQ(merged.find_span("flow")->count, 4u);
      EXPECT_EQ(merged.find_span("flow/sta")->count, 1u + 2);
      EXPECT_EQ(merged.find_span("flow/sizing")->count, 3u + 4);
    } else {
      EXPECT_EQ(json, reference) << "merge order changed the result";
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(TelemetryWire, RegistryMergeDeltaFoldsIntoLiveMetrics) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t before = reg.counter("test.wire_merge").value();

  TelemetrySnapshot delta;
  delta.counters.emplace_back("test.wire_merge", 3);
  delta.gauges.emplace_back("test.wire_gauge", 17);
  MetricsHistogram::Snapshot h;
  h.merge_value(4.0, MetricsHistogram::bucket_index(4.0) -
                         MetricsHistogram::kBias);
  delta.histograms.emplace_back("test.wire_hist", h);
  reg.merge_delta(delta);

  EXPECT_EQ(reg.counter("test.wire_merge").value(), before + 3);
  EXPECT_EQ(reg.gauge("test.wire_gauge").value(), 17);
  EXPECT_GE(reg.histogram("test.wire_hist").snapshot().count, 1u);

  // Gauges are levels: a later delta overwrites, it does not sum.
  TelemetrySnapshot delta2;
  delta2.gauges.emplace_back("test.wire_gauge", 5);
  reg.merge_delta(delta2);
  EXPECT_EQ(reg.gauge("test.wire_gauge").value(), 5);
}

TEST(TelemetryWire, HistogramQuantilesFromLog2Buckets) {
  MetricsHistogram::Snapshot h;
  for (int i = 0; i < 100; ++i) {
    const double v = 1.0 + i * 0.01;  // 100 values in [1, 2)
    h.merge_value(v, MetricsHistogram::bucket_index(v) -
                         MetricsHistogram::kBias);
  }
  EXPECT_GE(h.quantile(0.0), h.min);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max);
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p50, h.max);
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));

  MetricsHistogram::Snapshot empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

// Every exposition line must be either a comment (# HELP / # TYPE) or
// `name{labels} value` with a [a-zA-Z_][a-zA-Z0-9_]* metric name — the
// grammar a Prometheus scraper actually parses.
TEST(TelemetryWire, PrometheusExpositionGrammar) {
  TelemetrySnapshot snap = rich_snapshot();
  const std::string text = snap.to_prometheus();
  ASSERT_FALSE(text.empty());
  std::size_t start = 0;
  int metric_lines = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    ++metric_lines;
    // Name: [a-zA-Z_][a-zA-Z0-9_]* up to '{' or ' '.
    std::size_t i = 0;
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(line[0])) ||
                line[0] == '_')
        << line;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_')) {
      ++i;
    }
    ASSERT_LT(i, line.size()) << line;
    EXPECT_TRUE(line[i] == '{' || line[i] == ' ') << line;
    if (line[i] == '{') {
      const std::size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      i = close + 1;
      ASSERT_LT(i, line.size()) << line;
      EXPECT_EQ(line[i], ' ') << line;
    }
    // Value: parses as a double consuming the rest of the line.
    const std::string value = line.substr(i + 1);
    char* parse_end = nullptr;
    std::strtod(value.c_str(), &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    // Every family traces back to rlccd_.
    EXPECT_EQ(line.rfind("rlccd_", 0), 0u) << line;
  }
  EXPECT_GT(metric_lines, 0);
}

TEST(MetricNames, ManifestSanctionsKnownAndRejectsUnknown) {
  // Spot checks across all three kinds plus the dynamic prefixes.
  EXPECT_TRUE(metric_name_registered("serve.jobs_done"));
  EXPECT_TRUE(metric_name_registered("serve.obs_deltas_merged"));
  EXPECT_TRUE(metric_name_registered("serve.queue_depth"));
  EXPECT_TRUE(metric_name_registered("serve.job_run_sec"));
  EXPECT_TRUE(metric_name_registered("serve.jobs_running"));
  EXPECT_TRUE(metric_name_registered("fault.serve_worker_crash"));
  EXPECT_TRUE(metric_name_registered("test.anything_goes"));

  EXPECT_FALSE(metric_name_registered("train.cache_hit"))  // the typo story
      << "singular/plural typos must not pass";
  EXPECT_FALSE(metric_name_registered("bogus.metric"));
  EXPECT_FALSE(metric_name_registered(""));
  EXPECT_FALSE(metric_name_registered("fault."))
      << "a bare dynamic prefix is not a name";

  // The manifest lists are duplicate-free and sorted (binary-searchable,
  // and diffs stay one-line).
  auto check_sorted = [](auto& names, const char* which) {
    for (std::size_t i = 1; i < std::size(names); ++i) {
      EXPECT_LT(names[i - 1], names[i]) << which << " out of order";
    }
  };
  check_sorted(kCounterNames, "counters");
  check_sorted(kGaugeNames, "gauges");
  check_sorted(kHistogramNames, "histograms");
}

}  // namespace
}  // namespace rlccd
