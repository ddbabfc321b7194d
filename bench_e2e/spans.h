// The benchmark's own span buffer: wall-clock spans recorded from the
// benchmark's code around each call into a layer, kept in memory and
// written out when the traced process ends.
//
// Deliberately separate from MetricsRegistry: the registry's debug build
// asserts every name against src/common/metric_names.h, and these names
// belong to the benchmark, not the library. Recording is off unless
// SpanLog::enable() ran, so the untraced runs that give the end-to-end
// numbers pay only a clock read per span.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rlccd::bench {

// Steady-clock seconds (the same clock TraceRecorder stamps with).
double now_sec();

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // steady-clock seconds
    double dur = 0.0;
    int parent = -1;     // index of the enclosing span on the same thread
    int tid = 0;
  };

  static SpanLog& global();
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Open returns the span's index (or -1 when disabled); close fills its
  // duration. Spans nest per thread.
  int open(std::string_view name, double start);
  void close(int index, double end);

  // Chrome-trace complete events ("ph":"X"), comma-joined, no brackets, with
  // ts relative to `t0_sec`.
  [[nodiscard]] std::string chrome_events(int pid, double t0_sec) const;
  // Per-name count, total and self time (total minus the time covered by
  // direct child spans), largest self time first.
  [[nodiscard]] std::string self_time_table() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// RAII span; elapsed() is valid whether or not recording is enabled.
class BenchSpan {
 public:
  explicit BenchSpan(std::string_view name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  [[nodiscard]] double elapsed() const { return now_sec() - start_; }

 private:
  double start_;
  int index_;
};

}  // namespace rlccd::bench
