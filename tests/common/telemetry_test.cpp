#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "designgen/generator.h"
#include "opt/flow.h"

namespace rlccd {
namespace {

// Spins for roughly `sec` of wall-clock; keeps span durations strictly
// positive without sleeping (robust under load and sanitizers).
void spin_for(double sec) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < sec) {
  }
}

// -- counters -----------------------------------------------------------------

TEST(Telemetry, CounterRegistryIdentityAndAdd) {
  MetricsCounter& a = MetricsRegistry::global().counter("test.identity");
  MetricsCounter& b = MetricsRegistry::global().counter("test.identity");
  EXPECT_EQ(&a, &b) << "find-or-register must return a stable object";
  EXPECT_EQ(a.name(), "test.identity");

  const std::uint64_t before = a.value();
  a.add(3);
  a.increment();
  a.add(0);  // no-op, must not crash or miscount
  EXPECT_EQ(a.value(), before + 4);
}

TEST(Telemetry, CounterConcurrentIncrementsAreExact) {
  // The determinism contract: N threads x M increments lose nothing.
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  MetricsCounter& c = MetricsRegistry::global().counter("test.concurrent");
  const std::uint64_t before = c.value();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (int i = 0; i < kIncrements; ++i) c.increment();
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value(), before + static_cast<std::uint64_t>(kThreads) *
                                    static_cast<std::uint64_t>(kIncrements));
}

// -- capture scopes -----------------------------------------------------------

TEST(Telemetry, ScopeCapturesCounterDeltas) {
  MetricsCounter& c = MetricsRegistry::global().counter("test.scope_delta");
  c.add(5);  // before any scope: must not be visible below

  TelemetryScope outer;
  c.add(3);
  {
    TelemetryScope inner;
    c.add(4);
    TelemetrySnapshot snap = inner.snapshot();
    EXPECT_EQ(snap.counter("test.scope_delta"), 4u);
    EXPECT_EQ(snap.counter("test.never_registered"), 0u);
  }
  c.add(2);
  // The outer scope sees its own adds plus everything the inner scope saw.
  EXPECT_EQ(outer.snapshot().counter("test.scope_delta"), 9u);
}

TEST(Telemetry, ScopeIsPerThread) {
  // A scope captures only the constructing thread's activity — the property
  // that keeps per-flow snapshots exact while trainer workers run flows
  // concurrently on their own threads.
  MetricsCounter& c = MetricsRegistry::global().counter("test.scope_thread");
  TelemetryScope scope;
  std::thread other([&c]() { c.add(100); });
  other.join();
  c.add(1);
  EXPECT_EQ(scope.snapshot().counter("test.scope_thread"), 1u);
  EXPECT_GE(c.value(), 101u) << "the global value still sees both threads";
}

// -- spans --------------------------------------------------------------------

TEST(Telemetry, SpanNestingAndExclusiveTime) {
  TelemetryScope scope;
  {
    RLCCD_SPAN("outer_span");
    spin_for(2e-4);
    for (int i = 0; i < 2; ++i) {
      RLCCD_SPAN("inner_span");
      spin_for(1e-4);
    }
  }
  TelemetrySnapshot snap = scope.snapshot();

  const SpanNode* outer = snap.find_span("outer_span");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1u);

  const SpanNode* inner = snap.find_span("outer_span/inner_span");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->count, 2u) << "same-name spans aggregate under one node";
  EXPECT_EQ(inner, outer->find_child("inner_span"));

  // Exclusive accounting: parent total covers the children plus its own work.
  EXPECT_GT(inner->total_sec, 0.0);
  EXPECT_GE(outer->total_sec, inner->total_sec);
  EXPECT_DOUBLE_EQ(outer->exclusive_sec(),
                   outer->total_sec - outer->child_sec());
  EXPECT_GE(outer->exclusive_sec(), 2e-4 * 0.5)
      << "the spin outside the children must show up as exclusive time";
  EXPECT_EQ(snap.find_span("outer_span/missing"), nullptr);
}

TEST(Telemetry, ScopeCapturesSpansUnderOpenOuterSpan) {
  // The trainer-worker shape: "rollout" is still open when the flow's scope
  // is created and destroyed, so captured paths must be relative to the
  // scope, not to the thread's span root.
  TelemetrySnapshot snap;
  std::thread worker([&snap]() {
    RLCCD_SPAN("outer_still_open");
    TelemetryScope scope;
    {
      RLCCD_SPAN("unit_of_work");
      spin_for(5e-5);
    }
    snap = scope.snapshot();
  });
  worker.join();

  EXPECT_EQ(snap.find_span("outer_still_open"), nullptr)
      << "spans opened before the scope must not leak into it";
  const SpanNode* unit = snap.find_span("unit_of_work");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->count, 1u);
  EXPECT_GT(unit->total_sec, 0.0);
}

TEST(Telemetry, OutermostCloseMergesIntoGlobalAggregate) {
  {
    RLCCD_SPAN("merge_outer");
    RLCCD_SPAN("merge_inner");
    spin_for(5e-5);
  }
  TelemetrySnapshot snap = MetricsRegistry::global().snapshot();
  const SpanNode* inner = snap.find_span("merge_outer/merge_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->count, 1u);
}

TEST(Telemetry, ResetDropsTheCallersBatchedSpanCloses) {
  // Five outermost closes stay in this thread's batch (kMergeEvery is 64).
  for (int i = 0; i < 5; ++i) {
    RLCCD_SPAN("closed_before_reset");
  }
  MetricsRegistry::global().reset();
  EXPECT_TRUE(MetricsRegistry::global().snapshot().spans.children.empty());
}

// -- histograms ---------------------------------------------------------------

TEST(Telemetry, HistogramStats) {
  MetricsHistogram& h = MetricsRegistry::global().histogram("test.hist");
  MetricsHistogram& same = MetricsRegistry::global().histogram("test.hist");
  EXPECT_EQ(&h, &same);

  h.record(0.25);
  h.record(0.25);
  h.record(3.0);
  MetricsHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 3.5);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5 / 3.0);

  // 0.25 lands in [2^-2, 2^-1) => exponent -1; 3.0 in [2^1, 2^2) => 2.
  std::uint64_t total = 0;
  std::uint64_t at_m1 = 0, at_2 = 0;
  for (const auto& [exp, n] : s.buckets) {
    total += n;
    if (exp == -1) at_m1 = n;
    if (exp == 2) at_2 = n;
  }
  EXPECT_EQ(total, s.count);
  EXPECT_EQ(at_m1, 2u);
  EXPECT_EQ(at_2, 1u);
}

TEST(Telemetry, HistogramEmptySnapshot) {
  MetricsHistogram& h = MetricsRegistry::global().histogram("test.hist_empty");
  MetricsHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0) << "sentinels must not leak out";
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(s.buckets.empty());
}

// -- JSON export --------------------------------------------------------------

// Minimal recursive-descent JSON parser, just enough to round-trip the
// telemetry export schema (objects, arrays, strings, numbers).
struct Json {
  enum class Kind { Invalid, Number, String, Array, Object };
  Kind kind = Kind::Invalid;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* get(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) v.kind = Json::Kind::Invalid;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  Json value() {
    skip_ws();
    Json v;
    char c = peek();
    if (c == '{') {
      v.kind = Json::Kind::Object;
      eat('{');
      if (!eat('}')) {
        do {
          Json key = value();
          if (key.kind != Json::Kind::String || !eat(':')) return {};
          v.object.emplace_back(key.str, value());
        } while (eat(','));
        if (!eat('}')) return {};
      }
    } else if (c == '[') {
      v.kind = Json::Kind::Array;
      eat('[');
      if (!eat(']')) {
        do {
          v.array.push_back(value());
        } while (eat(','));
        if (!eat(']')) return {};
      }
    } else if (c == '"') {
      ++pos_;
      v.kind = Json::Kind::String;
      while (pos_ < s_.size() && s_[pos_] != '"') {
        if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
          ++pos_;
          switch (s_[pos_]) {
            case 'n': v.str += '\n'; break;
            case 't': v.str += '\t'; break;
            default: v.str += s_[pos_];
          }
        } else {
          v.str += s_[pos_];
        }
        ++pos_;
      }
      if (pos_ >= s_.size()) return {};
      ++pos_;  // closing quote
    } else {
      std::size_t end = pos_;
      while (end < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[end])) != 0 ||
              s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
              s_[end] == 'e' || s_[end] == 'E')) {
        ++end;
      }
      if (end == pos_) return {};
      v.kind = Json::Kind::Number;
      v.number = std::stod(std::string(s_.substr(pos_, end - pos_)));
      pos_ = end;
    }
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

const Json* find_span_json(const Json& spans_array, std::string_view name) {
  for (const Json& s : spans_array.array) {
    const Json* n = s.get("name");
    if (n != nullptr && n->str == name) return &s;
  }
  return nullptr;
}

TEST(Telemetry, SnapshotJsonRoundTrip) {
  MetricsCounter& c = MetricsRegistry::global().counter("test.json_counter");
  TelemetryScope scope;
  c.add(7);
  {
    RLCCD_SPAN("json_outer");
    RLCCD_SPAN("json_inner");
    spin_for(5e-5);
  }
  TelemetrySnapshot snap = scope.snapshot();

  Json doc = JsonParser(snap.to_json()).parse();
  ASSERT_EQ(doc.kind, Json::Kind::Object) << snap.to_json();

  const Json* counters = doc.get("counters");
  ASSERT_NE(counters, nullptr);
  const Json* cv = counters->get("test.json_counter");
  ASSERT_NE(cv, nullptr);
  EXPECT_DOUBLE_EQ(cv->number, 7.0);

  const Json* spans = doc.get("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->kind, Json::Kind::Array);
  const Json* outer = find_span_json(*spans, "json_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_DOUBLE_EQ(outer->get("count")->number, 1.0);
  const SpanNode* outer_node = snap.find_span("json_outer");
  ASSERT_NE(outer_node, nullptr);
  EXPECT_NEAR(outer->get("total_sec")->number, outer_node->total_sec,
              1e-9 + 1e-6 * outer_node->total_sec);
  const Json* inner = find_span_json(*outer->get("children"), "json_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(inner->get("count")->number, 1.0);
  EXPECT_GT(inner->get("total_sec")->number, 0.0);
  // exclusive_sec is exported alongside total_sec.
  EXPECT_LE(inner->get("exclusive_sec")->number,
            inner->get("total_sec")->number + 1e-12);
}

TEST(Telemetry, RegistryJsonIncludesHistograms) {
  MetricsHistogram& h =
      MetricsRegistry::global().histogram("test.json_hist");
  h.record(1.5);
  h.record(6.0);

  Json doc = JsonParser(MetricsRegistry::global().to_json()).parse();
  ASSERT_EQ(doc.kind, Json::Kind::Object);
  const Json* hists = doc.get("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* hj = hists->get("test.json_hist");
  ASSERT_NE(hj, nullptr);
  EXPECT_GE(hj->get("count")->number, 2.0);
  EXPECT_GE(hj->get("max")->number, 6.0);
  ASSERT_NE(hj->get("buckets"), nullptr);
  EXPECT_FALSE(hj->get("buckets")->array.empty());
  // Each bucket is an [exponent, count] pair.
  EXPECT_EQ(hj->get("buckets")->array[0].array.size(), 2u);
}

TEST(Telemetry, SnapshotCsv) {
  MetricsCounter& c = MetricsRegistry::global().counter("test.csv_counter");
  TelemetryScope scope;
  c.add(11);
  {
    RLCCD_SPAN("csv_span");
    spin_for(2e-5);
  }
  std::string csv = scope.snapshot().to_csv();
  EXPECT_NE(csv.find("counter,test.csv_counter,11"), std::string::npos) << csv;
  EXPECT_NE(csv.find("span,csv_span,1,"), std::string::npos) << csv;
}

// -- flow integration ---------------------------------------------------------

TEST(TelemetryFlow, FlowSnapshotAgreesWithStaStats) {
  // The per-flow capture must agree exactly with the flow's own StaStats —
  // the same circuit bench_incremental uses, scaled down for test time.
  GeneratorConfig gcfg;
  gcfg.name = "micro800";
  gcfg.target_cells = 800;
  gcfg.seed = 5;
  gcfg.clock_tightness = 0.75;
  Design d = generate_design(gcfg);

  Netlist work = *d.netlist;
  FlowConfig cfg =
      default_flow_config(work.num_real_cells(), d.clock_period);
  FlowInput input{d.sta_config, d.clock_period, d.die, d.pi_toggles};
  FlowResult r = run_placement_flow(work, input, cfg);

  const TelemetrySnapshot& t = r.telemetry;
  EXPECT_EQ(t.counter("sta.full_runs"), r.sta_stats.full_runs);
  EXPECT_EQ(t.counter("sta.incremental_updates"),
            r.sta_stats.incremental_updates);
  EXPECT_EQ(t.counter("sta.pin_updates.forward"),
            r.sta_stats.forward_pin_updates);
  EXPECT_EQ(t.counter("sta.pin_updates.backward"),
            r.sta_stats.backward_pin_updates);
  EXPECT_EQ(t.counter("sta.relevel_batches"), r.sta_stats.relevel_batches);
  EXPECT_GT(r.sta_stats.pin_updates(), 0u);

  // The nested per-pass breakdown the acceptance criteria name.
  const SpanNode* flow = t.find_span("flow");
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->count, 1u);
  for (const char* path :
       {"flow/begin_sta", "flow/pre_ccd_sizing", "flow/useful_skew",
        "flow/data_round_0", "flow/data_round_1", "flow/skew_touchup",
        "flow/legalize", "flow/final_sizing", "flow/hold_fix",
        "flow/final_sta"}) {
    const SpanNode* span = t.find_span(path);
    ASSERT_NE(span, nullptr) << path;
    EXPECT_EQ(span->count, 1u) << path;
    EXPECT_GE(span->total_sec, 0.0) << path;
  }
  // Optimization passes nest under their flow step.
  EXPECT_NE(t.find_span("flow/pre_ccd_sizing/sizing"), nullptr);
  EXPECT_NE(t.find_span("flow/data_round_0/sizing"), nullptr);
  EXPECT_NE(t.find_span("flow/data_round_0/buffering"), nullptr);
  EXPECT_NE(t.find_span("flow/data_round_0/restructure"), nullptr);

  // Children cannot exceed the parent, and runtime_sec() is the flow total.
  EXPECT_GE(flow->total_sec + 1e-9, flow->child_sec());
  EXPECT_DOUBLE_EQ(r.runtime_sec(), flow->total_sec);
  EXPECT_GT(r.runtime_sec(), 0.0);

  // A second flow in the same process captures only its own work.
  Netlist work2 = *d.netlist;
  FlowResult r2 = run_placement_flow(work2, input, cfg);
  EXPECT_EQ(r2.telemetry.counter("sta.full_runs"), r2.sta_stats.full_runs);
  EXPECT_EQ(r2.telemetry.counter("sta.pin_updates.forward"),
            r2.sta_stats.forward_pin_updates);
  const SpanNode* flow2 = r2.telemetry.find_span("flow");
  ASSERT_NE(flow2, nullptr);
  EXPECT_EQ(flow2->count, 1u);
}

}  // namespace
}  // namespace rlccd
