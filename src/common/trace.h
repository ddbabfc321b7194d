// Flight recorder: a timeline trace of *individual* events, complementing
// the aggregated span trees in telemetry.h. Aggregates answer "how much
// total time went into sizing"; the trace answers "where did the wall-clock
// go on this specific iteration" — it records every span close as one
// Chrome-trace complete event ("ph":"X") plus explicit instant events
// ("ph":"i") at interesting moments (checkpoint written, rollback,
// trajectory poisoned, a serve attempt's start), and exports the whole
// timeline as Chrome-trace JSON that chrome://tracing and Perfetto load
// directly.
//
// One process-wide ring of fixed-size events under one mutex:
//   * Off by default: disabled, a span close costs one relaxed atomic load.
//   * Memory fixed by enable(capacity): 64 bytes per slot, allocated
//     without being written, so a run touches only the slots it fills. When
//     the ring wraps, the oldest events are overwritten and the registry
//     counter "trace.events_dropped" counts the loss. The newest events are
//     the ones you want when a run misbehaves.
//   * Every event gets a process-wide sequence number. A TraceCursor is the
//     next number to collect, so a forked child can ship exactly the events
//     it recorded since its last ship; the crash postmortems of serve jobs
//     are the tail of those shipped events.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rlccd {

namespace trace_detail {
// Runtime gate, read on every span close. Namespace-scope so the hook's
// fast path inlines into telemetry.cpp.
extern std::atomic<bool> g_trace_enabled;
}  // namespace trace_detail

struct TraceEvent {
  // Span names are copied inline (the aggregate tree nodes that own them
  // are cleared on batch merges, so pointers would dangle). Longer names
  // are truncated; every current span and marker name fits.
  static constexpr std::size_t kMaxName = 43;
  char name[kMaxName + 1];
  std::int32_t tid;  // export row: the recording thread's, or its slot's
  double start_sec;  // steady-clock seconds
  double dur_sec;    // < 0: instant event
};

// A trace event lifted out of the ring (or received from a child process):
// plain data, ready to ship over a pipe or re-import into another process's
// recorder. Timestamps stay raw steady-clock seconds — CLOCK_MONOTONIC is
// system-wide on Linux, so a child's start_sec values are directly
// comparable to the parent's.
struct CollectedTraceEvent {
  std::string name;
  double start_sec = 0.0;
  double dur_sec = 0.0;  // < 0: instant event
  int tid = 0;
};

// Incremental-collection cursor: the sequence number of the next event to
// collect. Sequence numbers never restart, so a cursor held across a
// re-enable skips the old generation's events instead of re-reading them.
struct TraceCursor {
  std::uint64_t next = 0;
};

class TraceRecorder {
 public:
  static TraceRecorder& global();

  // Starts recording into a fresh ring of `capacity` events (at least 16).
  // Re-enabling drops any previously buffered events.
  void enable(std::size_t capacity = kDefaultCapacity);
  // Stops recording; buffered events remain exportable.
  void disable();
  [[nodiscard]] static bool enabled() {
    return trace_detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  // Chrome-trace JSON ("traceEvents" array of X/i events, ts/dur in
  // microseconds relative to enable()), oldest surviving event first, then
  // the imported events of child processes.
  [[nodiscard]] std::string to_chrome_json() const;

  // Events currently buffered / dropped to ring wrap-around since enable().
  [[nodiscard]] std::uint64_t buffered_events() const;
  [[nodiscard]] std::uint64_t dropped_events() const;

  // Appends the events recorded since `cursor`, oldest first, to `out` and
  // advances the cursor. A cursor behind a wrapped ring resumes at the
  // oldest survivor (the overwritten events were counted as dropped). Safe
  // to call while other threads record.
  void collect_since(TraceCursor& cursor,
                     std::vector<CollectedTraceEvent>& out) const;

  // Positions `cursor` at "now" without collecting anything: the next
  // collect_since returns only events recorded after this call. A forked
  // child primes its cursor this way so events inherited from the parent's
  // ring are never re-shipped.
  void sync_cursor(TraceCursor& cursor) const;

  // Buffers events received from another process (a forked worker), tagged
  // with `pid`; to_chrome_json() emits them on that pid's rows so one
  // export holds the parent's and every child's timeline. Bounded: beyond
  // kMaxForeignEvents the newest imports are dropped and counted.
  void import_events(int pid, const std::vector<CollectedTraceEvent>& events);

  // Steady-clock origin of the current enable() generation (exported ts
  // values are relative to this).
  [[nodiscard]] double t0_sec() const;

  static constexpr std::size_t kMaxForeignEvents = 1 << 20;

  // From now on, the calling thread's events go on the export row of `slot`
  // (>= 0) instead of its own row: threads that take turns at one job, such
  // as a trainer's worker w, started afresh every iteration, share one row.
  // Rows are small ids in first-use order, a slot's drawn from the same
  // sequence as a thread's, so the two never collide.
  static void set_thread_slot(int slot);

  // Record-path hooks; prefer the macros below. No-ops unless enabled.
  static void record_complete(std::string_view name, double start_sec,
                              double dur_sec);
  static void record_instant(std::string_view name);

  static constexpr std::size_t kDefaultCapacity = 1 << 16;  // 64Ki = 4 MiB

 private:
  TraceRecorder() = default;
};

// -- Chrome-trace JSON helpers ------------------------------------------------
//
// Shared by the recorder's exporter and the serve daemon's stitched per-job
// trace writer. ts/dur are microseconds; dur_us < 0 emits an instant event.
void append_chrome_event(std::string& out, std::string_view name, double ts_us,
                         double dur_us, int pid, int tid);
// Metadata event naming a pid row ("attempt 0 (signal 9)", "daemon").
void append_chrome_process_name(std::string& out, int pid,
                                std::string_view name);

// RLCCD_TRACE_COMPLETE(name, start_sec, dur_sec) — one closed span.
// RLCCD_TRACE_INSTANT(name)                      — a point-in-time marker.
// Neither evaluates its arguments while the recorder is disabled.
#define RLCCD_TRACE_COMPLETE(name, start_sec, dur_sec)                   \
  do {                                                                   \
    if (::rlccd::TraceRecorder::enabled()) {                             \
      ::rlccd::TraceRecorder::record_complete((name), (start_sec),       \
                                              (dur_sec));                \
    }                                                                    \
  } while (0)
#define RLCCD_TRACE_INSTANT(name)                                        \
  do {                                                                   \
    if (::rlccd::TraceRecorder::enabled()) {                             \
      ::rlccd::TraceRecorder::record_instant(name);                      \
    }                                                                    \
  } while (0)

}  // namespace rlccd
