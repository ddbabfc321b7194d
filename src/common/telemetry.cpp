#include "common/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/contracts.h"
#include "common/json_writer.h"
#include "common/metric_names.h"
#include "common/trace.h"

namespace rlccd {

namespace {

constexpr std::size_t kMaxSpanDepth = 32;

// Outermost span closes merge into the registry in batches: hot loops that
// open depth-0 spans (a bare sta.update() per netlist edit) would otherwise
// pay a mutex + tree merge per close. Pending spans are drained by
// MetricsRegistry::flush_thread_spans() (snapshot() calls it) and at thread
// exit.
constexpr int kMergeEvery = 64;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void atomic_add_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Per-thread span tree: `stack` always starts at &root. Only the children of
// the top-of-stack node are ever appended to, so the SpanNode* entries below
// it stay valid while their spans are open.
struct ThreadSpanState {
  SpanNode root;
  std::vector<SpanNode*> stack;
  int pending_closes = 0;
  ThreadSpanState() { stack.push_back(&root); }
  // Thread-local destruction precedes static destruction, so the registry
  // singleton is still alive here; workers that exit with batched spans
  // pending (a trainer rollout) flush them on join.
  ~ThreadSpanState();
};

ThreadSpanState& thread_spans() {
  thread_local ThreadSpanState state;
  return state;
}

thread_local TelemetryScope* t_active_scope = nullptr;

ThreadSpanState::~ThreadSpanState() {
  if (!root.children.empty()) MetricsRegistry::global().merge_spans(root);
}

void append_number(std::string& out, double v) { append_json_number(out, v); }

void append_number(std::string& out, std::uint64_t v) {
  append_json_number(out, v);
}

void span_to_json(std::string& out, const SpanNode& node) {
  out += "{\"name\":\"";
  json_escape(out, node.name);
  out += "\",\"count\":";
  append_number(out, node.count);
  out += ",\"total_sec\":";
  append_number(out, node.total_sec);
  out += ",\"exclusive_sec\":";
  append_number(out, node.exclusive_sec());
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i) out += ',';
    span_to_json(out, node.children[i]);
  }
  out += "]}";
}

void spans_to_csv(std::string& out, const SpanNode& node,
                  const std::string& prefix) {
  for (const SpanNode& c : node.children) {
    std::string path = prefix.empty() ? c.name : prefix + "/" + c.name;
    char buf[96];
    std::snprintf(buf, sizeof buf, ",%llu,%.9g,%.9g\n",
                  static_cast<unsigned long long>(c.count), c.total_sec,
                  c.exclusive_sec());
    out += "span," + path + buf;
    spans_to_csv(out, c, path);
  }
}

void counters_to_json(
    std::string& out,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  out += "\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) out += ',';
    out += '"';
    json_escape(out, counters[i].first);
    out += "\":";
    append_number(out, counters[i].second);
  }
  out += '}';
}

void gauges_to_json(
    std::string& out,
    const std::vector<std::pair<std::string, std::int64_t>>& gauges) {
  out += "\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i) out += ',';
    out += '"';
    json_escape(out, gauges[i].first);
    out += "\":";
    append_json_number(out, static_cast<double>(gauges[i].second));
  }
  out += '}';
}

void spans_array_to_json(std::string& out, const SpanNode& root) {
  out += "\"spans\":[";
  for (std::size_t i = 0; i < root.children.size(); ++i) {
    if (i) out += ',';
    span_to_json(out, root.children[i]);
  }
  out += ']';
}

void histograms_to_json(
    std::string& out,
    const std::vector<std::pair<std::string, MetricsHistogram::Snapshot>>&
        histograms) {
  out += "\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& [name, hs] = histograms[i];
    if (i) out += ',';
    out += '"';
    json_escape(out, name);
    out += "\":{\"count\":";
    append_number(out, hs.count);
    out += ",\"sum\":";
    append_number(out, hs.sum);
    out += ",\"min\":";
    append_number(out, hs.min);
    out += ",\"max\":";
    append_number(out, hs.max);
    out += ",\"p50\":";
    append_number(out, hs.quantile(0.50));
    out += ",\"p95\":";
    append_number(out, hs.quantile(0.95));
    out += ",\"p99\":";
    append_number(out, hs.quantile(0.99));
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < hs.buckets.size(); ++b) {
      if (b) out += ',';
      out += '[';
      append_number(out, static_cast<double>(hs.buckets[b].first));
      out += ',';
      append_number(out, hs.buckets[b].second);
      out += ']';
    }
    out += "]}";
  }
  out += '}';
}

}  // namespace

// -- counters -----------------------------------------------------------------

void MetricsCounter::add(std::uint64_t n) {
  if (n == 0) return;
  value_.fetch_add(n, std::memory_order_relaxed);
  for (TelemetryScope* s = t_active_scope; s != nullptr; s = s->parent_) {
    s->record_counter(this, n);
  }
}

// -- histograms ---------------------------------------------------------------

int MetricsHistogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  return std::clamp(exp + kBias, 0, kNumBuckets - 1);
}

void MetricsHistogram::record(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, value);
  atomic_min_double(min_, value);
  atomic_max_double(max_, value);
  const int bucket = bucket_index(value);
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  for (TelemetryScope* s = t_active_scope; s != nullptr; s = s->parent_) {
    s->record_histogram(this, value, bucket - kBias);
  }
}

void MetricsHistogram::Snapshot::merge_value(double value, int exponent) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  auto it = std::lower_bound(
      buckets.begin(), buckets.end(), exponent,
      [](const auto& pair, int e) { return pair.first < e; });
  if (it != buckets.end() && it->first == exponent) {
    ++it->second;
  } else {
    buckets.insert(it, {exponent, 1});
  }
}

void MetricsHistogram::Snapshot::merge(const Snapshot& other) {
  if (other.count > 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  // Both bucket lists are exponent-sorted; a classic sorted merge keeps the
  // invariant without re-sorting.
  std::vector<std::pair<int, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0, b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

double MetricsHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th value, 1-based: ceil(q * count), at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (const auto& [exponent, n] : buckets) {
    cumulative += n;
    if (cumulative < rank) continue;
    // Interpolate linearly inside this bucket's [2^(e-1), 2^e) range by the
    // rank's position among the bucket's n values.
    const double hi = std::ldexp(1.0, exponent);
    const double lo = hi * 0.5;
    const double frac =
        n == 0 ? 1.0
               : static_cast<double>(rank - (cumulative - n)) /
                     static_cast<double>(n);
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;  // rank past every bucket (only with inconsistent counts)
}

void MetricsHistogram::merge_snapshot(const Snapshot& delta) {
  if (delta.count == 0) return;
  count_.fetch_add(delta.count, std::memory_order_relaxed);
  atomic_add_double(sum_, delta.sum);
  atomic_min_double(min_, delta.min);
  atomic_max_double(max_, delta.max);
  for (const auto& [exponent, n] : delta.buckets) {
    const int index = std::clamp(exponent + kBias, 0, kNumBuckets - 1);
    buckets_[static_cast<std::size_t>(index)].fetch_add(
        n, std::memory_order_relaxed);
  }
}

MetricsHistogram::Snapshot MetricsHistogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  for (int b = 0; b < kNumBuckets; ++b) {
    std::uint64_t n =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    if (n > 0) s.buckets.emplace_back(b - kBias, n);
  }
  return s;
}

// -- span tree ----------------------------------------------------------------

double SpanNode::child_sec() const {
  double sum = 0.0;
  for (const SpanNode& c : children) sum += c.total_sec;
  return sum;
}

SpanNode& SpanNode::child(std::string_view child_name) {
  for (SpanNode& c : children) {
    if (c.name == child_name) return c;
  }
  children.push_back(SpanNode{std::string(child_name), 0, 0.0, {}});
  return children.back();
}

const SpanNode* SpanNode::find_child(std::string_view child_name) const {
  for (const SpanNode& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

const SpanNode* SpanNode::find(std::string_view path) const {
  const SpanNode* node = this;
  while (!path.empty()) {
    std::size_t sep = path.find('/');
    std::string_view head =
        sep == std::string_view::npos ? path : path.substr(0, sep);
    path = sep == std::string_view::npos ? std::string_view{}
                                         : path.substr(sep + 1);
    node = node->find_child(head);
    if (node == nullptr) return nullptr;
  }
  return node;
}

void SpanNode::merge(const SpanNode& other) {
  count += other.count;
  total_sec += other.total_sec;
  for (const SpanNode& oc : other.children) child(oc.name).merge(oc);
  // Name-sorted siblings make the merged tree a pure function of its inputs:
  // N worker deltas fold to the same tree in any arrival order.
  std::sort(children.begin(), children.end(),
            [](const SpanNode& a, const SpanNode& b) { return a.name < b.name; });
}

// -- scoped spans -------------------------------------------------------------

ScopedSpan::ScopedSpan(std::string_view name) : start_sec_(steady_seconds()) {
  ThreadSpanState& st = thread_spans();
  SpanNode& node = st.stack.back()->child(name);
  st.stack.push_back(&node);
}

ScopedSpan::~ScopedSpan() {
  const double elapsed = steady_seconds() - start_sec_;
  ThreadSpanState& st = thread_spans();
  SpanNode* node = st.stack.back();
  node->count += 1;
  node->total_sec += elapsed;

  // Flight-recorder hook: one Chrome-trace complete event per span close,
  // one relaxed atomic load while the recorder is off.
  RLCCD_TRACE_COMPLETE(node->name, start_sec_, elapsed);

  // Feed active capture scopes with the path relative to each scope's base.
  if (t_active_scope != nullptr) {
    const std::size_t top = st.stack.size() - 1;  // index of `node`
    std::array<std::string_view, kMaxSpanDepth> names;
    const std::size_t depth = std::min(top, kMaxSpanDepth);
    for (std::size_t i = 0; i < depth; ++i) {
      names[i] = st.stack[top - depth + 1 + i]->name;
    }
    for (TelemetryScope* s = t_active_scope; s != nullptr; s = s->parent_) {
      if (top <= s->base_index_ || top - s->base_index_ > depth) continue;
      const std::size_t len = top - s->base_index_;
      s->record_span({names.data() + (depth - len), len}, elapsed);
    }
  }

  st.stack.pop_back();
  if (st.stack.size() == 1 && ++st.pending_closes >= kMergeEvery) {
    MetricsRegistry::global().merge_spans(st.root);
    st.root.children.clear();
    st.pending_closes = 0;
  }
}

// -- capture scope ------------------------------------------------------------

TelemetryScope::TelemetryScope()
    : parent_(t_active_scope),
      base_index_(thread_spans().stack.size() - 1) {
  t_active_scope = this;
}

TelemetryScope::~TelemetryScope() { t_active_scope = parent_; }

void TelemetryScope::record_span(std::span<const std::string_view> path,
                                 double sec) {
  SpanNode* node = &spans_;
  for (std::string_view name : path) node = &node->child(name);
  node->count += 1;
  node->total_sec += sec;
}

void TelemetryScope::record_counter(const MetricsCounter* counter,
                                    std::uint64_t n) {
  for (auto& [c, total] : counters_) {
    if (c == counter) {
      total += n;
      return;
    }
  }
  counters_.emplace_back(counter, n);
}

void TelemetryScope::record_histogram(const MetricsHistogram* hist,
                                      double value, int exponent) {
  for (auto& [h, snap] : histograms_) {
    if (h == hist) {
      snap.merge_value(value, exponent);
      return;
    }
  }
  histograms_.emplace_back(hist, MetricsHistogram::Snapshot{});
  histograms_.back().second.merge_value(value, exponent);
}

TelemetrySnapshot TelemetryScope::snapshot() const {
  TelemetrySnapshot snap;
  snap.spans = spans_;
  snap.counters.reserve(counters_.size());
  for (const auto& [c, total] : counters_) {
    snap.counters.emplace_back(c->name(), total);
  }
  std::sort(snap.counters.begin(), snap.counters.end());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [h, hist_snap] : histograms_) {
    snap.histograms.emplace_back(h->name(), hist_snap);
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snap;
}

// -- snapshot -----------------------------------------------------------------

std::uint64_t TelemetrySnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t TelemetrySnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

namespace {

// Sorted-by-name fold of `from` into `to`, combining collisions with `fold`
// and inserting misses (sort order preserved).
template <class V, class Fold>
void merge_named(std::vector<std::pair<std::string, V>>& to,
                 const std::vector<std::pair<std::string, V>>& from,
                 const Fold& fold) {
  for (const auto& [name, value] : from) {
    auto it = std::lower_bound(
        to.begin(), to.end(), name,
        [](const auto& pair, const std::string& n) { return pair.first < n; });
    if (it != to.end() && it->first == name) {
      fold(it->second, value);
    } else {
      to.insert(it, {name, value});
    }
  }
}

}  // namespace

void TelemetrySnapshot::merge(const TelemetrySnapshot& other) {
  spans.merge(other.spans);
  merge_named(counters, other.counters,
              [](std::uint64_t& to, std::uint64_t from) { to += from; });
  merge_named(gauges, other.gauges,
              [](std::int64_t& to, std::int64_t from) { to = from; });
  merge_named(histograms, other.histograms,
              [](MetricsHistogram::Snapshot& to,
                 const MetricsHistogram::Snapshot& from) { to.merge(from); });
}

const MetricsHistogram::Snapshot* TelemetrySnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::string TelemetrySnapshot::to_json() const {
  std::string out = "{";
  counters_to_json(out, counters);
  out += ',';
  gauges_to_json(out, gauges);
  out += ',';
  histograms_to_json(out, histograms);
  out += ',';
  spans_array_to_json(out, spans);
  out += '}';
  return out;
}

std::string TelemetrySnapshot::to_csv() const {
  std::string out = "kind,name,value\n";
  for (const auto& [n, v] : counters) {
    out += "counter," + n + ',';
    append_number(out, v);
    out += '\n';
  }
  for (const auto& [n, v] : gauges) {
    char buf[32];
    std::snprintf(buf, sizeof buf, ",%lld\n", static_cast<long long>(v));
    out += "gauge," + n + buf;
  }
  for (const auto& [n, h] : histograms) {
    char buf[192];
    std::snprintf(buf, sizeof buf, ",%llu,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                  static_cast<unsigned long long>(h.count), h.sum, h.min,
                  h.max, h.quantile(0.50), h.quantile(0.95),
                  h.quantile(0.99));
    out += "histogram," + n + buf;
  }
  spans_to_csv(out, spans, "");
  return out;
}

// -- Prometheus exposition ----------------------------------------------------

namespace {

// Metric-name sanitization: Prometheus names are [a-zA-Z_:][a-zA-Z0-9_:]*;
// our dotted names map dots (and anything else) to '_'.
void prom_name(std::string& out, std::string_view name) {
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
}

void prom_label_value(std::string& out, std::string_view value) {
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

void prom_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

// Flattens the span tree to (path, node) rows. Samples of one metric family
// must form one contiguous group in the exposition text, so the caller
// emits all _seconds samples first, then all _count samples.
void flatten_spans(const SpanNode& node, const std::string& prefix,
                   std::vector<std::pair<std::string, const SpanNode*>>& out) {
  for (const SpanNode& c : node.children) {
    const std::string path = prefix.empty() ? c.name : prefix + "/" + c.name;
    out.emplace_back(path, &c);
    flatten_spans(c, path, out);
  }
}

}  // namespace

std::string TelemetrySnapshot::to_prometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string base = "rlccd_";
    prom_name(base, name);
    base += "_total";
    out += "# TYPE " + base + " counter\n";
    out += base + ' ';
    prom_number(out, static_cast<double>(value));
    out += '\n';
  }
  for (const auto& [name, value] : gauges) {
    std::string base = "rlccd_";
    prom_name(base, name);
    out += "# TYPE " + base + " gauge\n";
    out += base + ' ';
    prom_number(out, static_cast<double>(value));
    out += '\n';
  }
  for (const auto& [name, h] : histograms) {
    std::string base = "rlccd_";
    prom_name(base, name);
    out += "# TYPE " + base + " summary\n";
    for (double q : {0.5, 0.95, 0.99}) {
      out += base + "{quantile=\"";
      prom_number(out, q);
      out += "\"} ";
      prom_number(out, h.quantile(q));
      out += '\n';
    }
    out += base + "_sum ";
    prom_number(out, h.sum);
    out += '\n';
    out += base + "_count ";
    prom_number(out, static_cast<double>(h.count));
    out += '\n';
  }
  if (!spans.children.empty()) {
    std::vector<std::pair<std::string, const SpanNode*>> flat;
    flatten_spans(spans, "", flat);
    out += "# TYPE rlccd_span_seconds_total counter\n";
    for (const auto& [path, node] : flat) {
      out += "rlccd_span_seconds_total{path=\"";
      prom_label_value(out, path);
      out += "\"} ";
      prom_number(out, node->total_sec);
      out += '\n';
    }
    out += "# TYPE rlccd_span_count_total counter\n";
    for (const auto& [path, node] : flat) {
      out += "rlccd_span_count_total{path=\"";
      prom_label_value(out, path);
      out += "\"} ";
      prom_number(out, static_cast<double>(node->count));
      out += '\n';
    }
  }
  return out;
}

// -- registry -----------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsCounter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    RLCCD_DEBUG_ASSERT(metric_name_registered(name));
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<MetricsCounter>(std::string(name)))
             .first;
  }
  return *it->second;
}

MetricsGauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    RLCCD_DEBUG_ASSERT(metric_name_registered(name));
    it = gauges_
             .emplace(std::string(name),
                      std::make_unique<MetricsGauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

MetricsHistogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    RLCCD_DEBUG_ASSERT(metric_name_registered(name));
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<MetricsHistogram>(std::string(name)))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::merge_delta(const TelemetrySnapshot& delta) {
  for (const auto& [name, value] : delta.counters) {
    if (value != 0) counter(name).add(value);
  }
  for (const auto& [name, value] : delta.gauges) gauge(name).set(value);
  for (const auto& [name, snap] : delta.histograms) {
    histogram(name).merge_snapshot(snap);
  }
  if (!delta.spans.children.empty()) merge_spans(delta.spans);
}

void MetricsRegistry::merge_spans(const SpanNode& root) {
  std::lock_guard<std::mutex> lock(span_mutex_);
  spans_.merge(root);
}

void MetricsRegistry::flush_thread_spans() {
  ThreadSpanState& st = thread_spans();
  // Only safe with no open spans: open ScopedSpans hold pointers into the
  // thread tree, which clearing would invalidate.
  if (st.stack.size() == 1 && !st.root.children.empty()) {
    global().merge_spans(st.root);
    st.root.children.clear();
    st.pending_closes = 0;
  }
}

TelemetrySnapshot MetricsRegistry::snapshot() const {
  flush_thread_spans();
  TelemetrySnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.emplace_back(name, c->value());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.emplace_back(name, g->value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      snap.histograms.emplace_back(name, h->snapshot());
    }
  }
  {
    std::lock_guard<std::mutex> lock(span_mutex_);
    snap.spans = spans_;
  }
  return snap;
}

std::string MetricsRegistry::to_json() const { return snapshot().to_json(); }

std::string MetricsRegistry::to_csv() const { return snapshot().to_csv(); }

std::string MetricsRegistry::to_prometheus() const {
  return snapshot().to_prometheus();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : gauges_) {
    g->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) {
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
    h->min_.store(MetricsHistogram::kMinInit, std::memory_order_relaxed);
    h->max_.store(MetricsHistogram::kMaxInit, std::memory_order_relaxed);
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
  }
  // The caller's batched outermost closes predate the reset too; drop them
  // rather than let the next snapshot merge them. Same guard as
  // flush_thread_spans(): open spans point into the thread tree.
  ThreadSpanState& st = thread_spans();
  if (st.stack.size() == 1) {
    st.root.children.clear();
    st.pending_closes = 0;
  }
  std::lock_guard<std::mutex> span_lock(span_mutex_);
  spans_ = SpanNode{};
}

// -- progress events ----------------------------------------------------------

double ProgressEvent::metric(std::string_view name, double fallback) const {
  for (const ProgressMetric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return fallback;
}

}  // namespace rlccd
