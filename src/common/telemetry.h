// Process-wide telemetry: the one sanctioned way work counters, timing
// breakdowns and progress stream out of the library.
//
// Three cooperating pieces:
//
//   * MetricsRegistry — named monotonic counters, level gauges and
//     histograms with O(1) lock-free updates (a relaxed atomic add/store).
//     Registration takes a short-lived mutex and debug-asserts the name
//     against the central manifest (common/metric_names.h); hot paths cache
//     the returned reference, which is stable for the process lifetime
//     (reset() zeroes values, never moves objects).
//
//   * ScopedSpan / RLCCD_SPAN — RAII wall-clock spans with thread-local
//     nesting. Closed spans aggregate by name into a tree ("flow" >
//     "data_round_0" > "sizing" > "sta_update"); when the outermost span of
//     a thread closes, the tree merges into the registry's global span
//     aggregate (batched; snapshot() and thread exit drain the remainder).
//     A TelemetryScope additionally captures, per thread, the
//     spans and counter deltas recorded while it is alive — this is how
//     run_placement_flow attaches an exact per-flow snapshot even while
//     eight trainer workers run flows concurrently.
//
//   * ProgressObserver — a callback interface FlowConfig/TrainConfig accept
//     so CLIs and tests stream per-pass / per-iteration events instead of
//     polling. Events carry a small flat metric payload (name/value pairs)
//     to keep this header dependency-free; callbacks fire on whichever
//     thread runs the instrumented code.
//
// Export: JSON (nested span trees, counters, gauges, histograms with
// p50/p95/p99), CSV, and Prometheus text exposition, from either the global
// registry or a per-flow TelemetrySnapshot. Snapshots are also *mergeable*
// (TelemetrySnapshot::merge, MetricsRegistry::merge_delta): forked workers
// ship compact deltas and the parent folds them into its own registry —
// counter/histogram merges are commutative, so arrival order cannot change
// the merged result (gauges are levels and take the incoming value).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rlccd {

// -- counters -----------------------------------------------------------------

class MetricsCounter {
 public:
  explicit MetricsCounter(std::string name) : name_(std::move(name)) {}
  MetricsCounter(const MetricsCounter&) = delete;
  MetricsCounter& operator=(const MetricsCounter&) = delete;

  // Lock-free; also feeds the calling thread's active TelemetryScope chain.
  void add(std::uint64_t n);
  void increment() { add(1); }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

// -- gauges -------------------------------------------------------------------

// A level, not a rate: queue depth, in-flight jobs, resident cache bytes.
// Unlike counters, gauges move both ways and merging takes the incoming
// value (the child's latest level) rather than summing.
class MetricsGauge {
 public:
  explicit MetricsGauge(std::string name) : name_(std::move(name)) {}
  MetricsGauge(const MetricsGauge&) = delete;
  MetricsGauge& operator=(const MetricsGauge&) = delete;

  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

// -- histograms ---------------------------------------------------------------

// Lock-free histogram over positive values (durations in seconds, batch
// sizes): power-of-two buckets plus count/sum/min/max.
class MetricsHistogram {
 public:
  // Bucket b counts values in [2^(b - kBias - 1), 2^(b - kBias)).
  static constexpr int kNumBuckets = 80;
  static constexpr int kBias = 40;

  explicit MetricsHistogram(std::string name) : name_(std::move(name)) {}
  MetricsHistogram(const MetricsHistogram&) = delete;
  MetricsHistogram& operator=(const MetricsHistogram&) = delete;

  // Lock-free; also feeds the calling thread's active TelemetryScope chain.
  void record(double value);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // undefined (0) when count == 0
    double max = 0.0;
    // (power-of-two exponent, count) for each non-empty bucket; a value v in
    // [2^(e-1), 2^e) lands in the pair with exponent e.
    std::vector<std::pair<int, std::uint64_t>> buckets;
    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    // Folds one recorded value in (per-scope capture uses the same bucket
    // boundaries as the global histogram).
    void merge_value(double value, int exponent);
    // Folds another snapshot in: counts/sums/buckets add, min/max widen.
    // Commutative and associative, so merge order cannot change the result.
    void merge(const Snapshot& other);
    // Quantile estimate from the log2 buckets: finds the bucket holding the
    // q-th value and interpolates linearly inside its [2^(e-1), 2^e) range,
    // clamped to the exact [min, max]. q in [0, 1]; 0 when count == 0.
    [[nodiscard]] double quantile(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;
  // Folds a snapshot delta into the live histogram (atomic adds; min/max
  // widen). How a parent process applies a forked worker's histogram delta.
  void merge_snapshot(const Snapshot& delta);
  [[nodiscard]] const std::string& name() const { return name_; }

  // Bucket index in [0, kNumBuckets) for a value; the snapshot exponent is
  // `index - kBias`.
  [[nodiscard]] static int bucket_index(double value);

 private:
  friend class MetricsRegistry;
  static constexpr double kMinInit = 1e300;   // sentinel until first record
  static constexpr double kMaxInit = -1e300;
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{kMinInit};  // valid only when count_ > 0
  std::atomic<double> max_{kMaxInit};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

// -- spans --------------------------------------------------------------------

// Aggregated span tree node. `exclusive_sec` is the wall-clock spent in the
// span itself, outside any recorded child span.
struct SpanNode {
  std::string name;
  std::uint64_t count = 0;
  double total_sec = 0.0;
  std::vector<SpanNode> children;

  [[nodiscard]] double child_sec() const;
  [[nodiscard]] double exclusive_sec() const { return total_sec - child_sec(); }
  // Find-or-add a direct child by name.
  SpanNode& child(std::string_view child_name);
  [[nodiscard]] const SpanNode* find_child(std::string_view child_name) const;
  // Descend along a '/'-separated path ("flow/useful_skew").
  [[nodiscard]] const SpanNode* find(std::string_view path) const;
  void merge(const SpanNode& other);
};

// RAII span. Nesting is per thread; the name is copied on first use and
// aggregated by (parent path, name) thereafter.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  double start_sec_;  // steady-clock seconds
};

#define RLCCD_SPAN_CONCAT2(a, b) a##b
#define RLCCD_SPAN_CONCAT(a, b) RLCCD_SPAN_CONCAT2(a, b)
#define RLCCD_SPAN(name) \
  ::rlccd::ScopedSpan RLCCD_SPAN_CONCAT(rlccd_span_, __LINE__)(name)

// -- snapshots ----------------------------------------------------------------

// A self-contained copy of the spans, counter deltas and histogram deltas
// captured by a TelemetryScope (or of the whole registry). Plain data; safe
// to store in results and copy across threads.
struct TelemetrySnapshot {
  SpanNode spans;  // synthetic root (empty name); children are top-level spans
  std::vector<std::pair<std::string, std::uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, std::int64_t>> gauges;     // name-sorted
  std::vector<std::pair<std::string, MetricsHistogram::Snapshot>>
      histograms;  // name-sorted

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] std::int64_t gauge(std::string_view name) const;
  [[nodiscard]] const MetricsHistogram::Snapshot* histogram(
      std::string_view name) const;
  [[nodiscard]] const SpanNode* find_span(std::string_view path) const {
    return spans.find(path);
  }

  // Folds `other` in: counters and histogram contents add, span trees merge
  // by path, gauges take the incoming level. Counter/histogram/span merging
  // is commutative and associative — N deltas merge to the same snapshot in
  // any arrival order.
  void merge(const TelemetrySnapshot& other);

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;
  // Prometheus text exposition: counters as `rlccd_<name>` counter
  // families, gauges as gauges, histograms as summaries with
  // quantile="0.5|0.95|0.99" plus _sum/_count, spans as
  // rlccd_span_seconds_total / rlccd_span_count_total with a path label.
  // Dots and other non-[a-zA-Z0-9_] characters sanitize to '_'.
  [[nodiscard]] std::string to_prometheus() const;
};

// Captures spans closed and counter deltas added on the *current thread*
// while alive. Scopes nest (inner deltas also reach outer scopes). Must be
// created and destroyed on the same thread.
class TelemetryScope {
 public:
  TelemetryScope();
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  [[nodiscard]] TelemetrySnapshot snapshot() const;

 private:
  friend class MetricsCounter;
  friend class MetricsHistogram;
  friend class ScopedSpan;
  void record_span(std::span<const std::string_view> path, double sec);
  void record_counter(const MetricsCounter* counter, std::uint64_t n);
  void record_histogram(const MetricsHistogram* hist, double value,
                        int exponent);

  TelemetryScope* parent_;
  std::size_t base_index_;  // span-stack depth at construction
  SpanNode spans_;
  std::vector<std::pair<const MetricsCounter*, std::uint64_t>> counters_;
  std::vector<std::pair<const MetricsHistogram*, MetricsHistogram::Snapshot>>
      histograms_;
};

// -- registry -----------------------------------------------------------------

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  // Find-or-register. Returned references are stable for the process
  // lifetime; hot paths should cache them. Registration (first use of a
  // name) debug-asserts the name against the common/metric_names.h
  // manifest, so a typo'd metric dies in debug builds instead of silently
  // registering a fresh always-zero series.
  MetricsCounter& counter(std::string_view name);
  MetricsGauge& gauge(std::string_view name);
  MetricsHistogram& histogram(std::string_view name);

  // Merges the calling thread's batched outermost-span closes into the
  // global aggregate. snapshot() calls it; other threads drain when their
  // own batch fills or at thread exit. No-op while spans are open.
  static void flush_thread_spans();

  // Counters, histogram snapshots and the global span aggregate. Drains the
  // calling thread's pending spans first.
  [[nodiscard]] TelemetrySnapshot snapshot() const;
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_prometheus() const;

  // Folds a worker's telemetry delta into the live registry: counters add,
  // histograms merge (atomic), span trees merge by path, gauges take the
  // incoming level. The parent-side half of the cross-process observability
  // plane (children ship deltas; see common/telemetry_wire.h).
  void merge_delta(const TelemetrySnapshot& delta);

  // Zeroes every counter/histogram and clears the span aggregate, and the
  // calling thread's batched span closes when it has no span open. Object
  // addresses survive (cached references stay valid). Test helper; not
  // meant to run concurrently with recording threads.
  void reset();

  // Internal plumbing for the span machinery (thread trees merging in):
  // takes the span lock; not meant for direct use.
  void merge_spans(const SpanNode& root);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<MetricsCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<MetricsGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricsHistogram>, std::less<>>
      histograms_;
  mutable std::mutex span_mutex_;
  SpanNode spans_;
};

// -- progress events ----------------------------------------------------------

struct ProgressMetric {
  std::string_view name;
  double value = 0.0;
};

struct ProgressEvent {
  std::string_view phase;  // "flow" | "train" | ...
  std::string_view step;   // "useful_skew", "iteration", ...
  int index = -1;          // data-round / iteration index; -1 when n/a
  double seconds = 0.0;    // wall-clock of the step (0 when n/a)
  std::span<const ProgressMetric> metrics;

  [[nodiscard]] double metric(std::string_view name,
                              double fallback = 0.0) const;
};

// Implementations must tolerate being called from whichever thread runs the
// instrumented code (trainer iteration events fire on the training thread;
// flow step events fire on the thread running that flow).
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;
  virtual void on_event(const ProgressEvent& event) = 0;
};

}  // namespace rlccd
