#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/contracts.h"
#include "common/json_writer.h"
#include "common/telemetry.h"

namespace rlccd {

namespace trace_detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace trace_detail

namespace {

static_assert(sizeof(TraceEvent) == 64, "one cache line per event");

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ForeignEvent {
  int pid;
  CollectedTraceEvent ev;
};

struct TraceState {
  // Guards everything below. fork() copies this mutex in whatever state it
  // is in, so a process forks only while no other thread records: the
  // trainer forks rollout children from its main thread with no worker
  // threads alive, and the serve daemon is single-threaded (the tests that
  // run it on a thread keep the recorder off in their process).
  std::mutex mutex;
  std::unique_ptr<TraceEvent[]> slots;  // slot of event s: s % capacity
  std::size_t capacity = 0;
  // Sequence numbers count events since process start and never restart.
  std::uint64_t next_seq = 0;   // the next event's
  std::uint64_t first_seq = 0;  // the current enable()'s first event's
  std::uint64_t dropped = 0;
  std::vector<ForeignEvent> foreign;  // imported child-process events
  double t0_sec = 0.0;
  // Per slot, its export row or -1. Rows outlive enable(), as a thread's do.
  std::vector<int> slot_rows;

  [[nodiscard]] std::uint64_t buffered() const {
    return std::min<std::uint64_t>(next_seq - first_seq, capacity);
  }
  [[nodiscard]] std::uint64_t oldest() const { return next_seq - buffered(); }
};

TraceState& state() {
  static TraceState s;
  return s;
}

// Export rows: process-wide small ids in first-use order, one per thread
// or per slot (TraceRecorder::set_thread_slot).
std::atomic<int> g_next_row{0};
thread_local int t_row = -1;

int new_row() { return g_next_row.fetch_add(1, std::memory_order_relaxed); }

void record_event(std::string_view name, double start_sec, double dur_sec) {
  if (t_row < 0) t_row = new_row();
  const int tid = t_row;
  TraceState& st = state();
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    TraceEvent& ev = st.slots[st.next_seq % st.capacity];
    const std::size_t len = std::min(name.size(), TraceEvent::kMaxName);
    std::memcpy(ev.name, name.data(), len);
    ev.name[len] = '\0';
    ev.tid = tid;
    ev.start_sec = start_sec;
    ev.dur_sec = dur_sec;
    // Drop-oldest: a full ring's write overwrote the oldest survivor.
    overwrote = st.next_seq - st.first_seq >= st.capacity;
    st.dropped += overwrote ? 1 : 0;
    ++st.next_seq;
  }
  if (overwrote) {
    static MetricsCounter& ctr_dropped =
        MetricsRegistry::global().counter("trace.events_dropped");
    ctr_dropped.increment();
  }
}

// ts/dur in microseconds relative to `t0_sec`; events that began before it
// are clipped at zero so viewers get a non-negative timeline.
void append_event_json(std::string& out, std::string_view name,
                       double start_sec, double dur_sec, int pid, int tid,
                       double t0_sec) {
  double ts_us = (start_sec - t0_sec) * 1e6;
  double dur_us = dur_sec * 1e6;
  if (ts_us < 0.0) {
    if (dur_us > 0.0) dur_us = std::max(0.0, dur_us + ts_us);
    ts_us = 0.0;
  }
  append_chrome_event(out, name, ts_us, dur_sec < 0.0 ? -1.0 : dur_us, pid,
                      tid);
}

}  // namespace

void append_chrome_event(std::string& out, std::string_view name, double ts_us,
                         double dur_us, int pid, int tid) {
  out += "{\"name\":\"";
  json_escape(out, name);
  if (dur_us < 0.0) {
    out += "\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    append_json_number(out, ts_us);
  } else {
    out += "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":";
    append_json_number(out, ts_us);
    out += ",\"dur\":";
    append_json_number(out, dur_us);
  }
  out += ",\"pid\":";
  append_json_number(out, static_cast<std::uint64_t>(pid));
  out += ",\"tid\":";
  append_json_number(out, static_cast<std::uint64_t>(tid));
  out += '}';
}

void append_chrome_process_name(std::string& out, int pid,
                                std::string_view name) {
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  append_json_number(out, static_cast<std::uint64_t>(pid));
  out += ",\"tid\":0,\"args\":{\"name\":\"";
  json_escape(out, name);
  out += "\"}}";
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::enable(std::size_t capacity) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.capacity = std::max<std::size_t>(capacity, 16);
  // Unwritten slots stay unwritten: pages are touched as events fill them.
  st.slots = std::make_unique_for_overwrite<TraceEvent[]>(st.capacity);
  st.first_seq = st.next_seq;
  st.dropped = 0;
  st.foreign.clear();
  st.t0_sec = steady_seconds();
  trace_detail::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::disable() {
  trace_detail::g_trace_enabled.store(false, std::memory_order_release);
}

void TraceRecorder::set_thread_slot(int slot) {
  RLCCD_EXPECTS(slot >= 0);
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  const auto i = static_cast<std::size_t>(slot);
  if (st.slot_rows.size() <= i) st.slot_rows.resize(i + 1, -1);
  if (st.slot_rows[i] < 0) st.slot_rows[i] = new_row();
  t_row = st.slot_rows[i];
}

void TraceRecorder::record_complete(std::string_view name, double start_sec,
                                    double dur_sec) {
  record_event(name, start_sec, std::max(dur_sec, 0.0));
}

void TraceRecorder::record_instant(std::string_view name) {
  record_event(name, steady_seconds(), -1.0);
}

std::uint64_t TraceRecorder::buffered_events() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.buffered();
}

std::uint64_t TraceRecorder::dropped_events() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.dropped;
}

void TraceRecorder::collect_since(TraceCursor& cursor,
                                  std::vector<CollectedTraceEvent>& out) const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (std::uint64_t s = std::max(cursor.next, st.oldest()); s < st.next_seq;
       ++s) {
    const TraceEvent& ev = st.slots[s % st.capacity];
    out.push_back(
        CollectedTraceEvent{ev.name, ev.start_sec, ev.dur_sec, ev.tid});
  }
  cursor.next = st.next_seq;
}

void TraceRecorder::sync_cursor(TraceCursor& cursor) const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  cursor.next = st.next_seq;
}

void TraceRecorder::import_events(
    int pid, const std::vector<CollectedTraceEvent>& events) {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (const CollectedTraceEvent& ev : events) {
    if (st.foreign.size() >= kMaxForeignEvents) {
      const std::uint64_t over = events.size() - (&ev - events.data());
      st.dropped += over;
      MetricsRegistry::global().counter("trace.events_dropped").add(over);
      break;
    }
    st.foreign.push_back(ForeignEvent{pid, ev});
  }
}

double TraceRecorder::t0_sec() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  return st.t0_sec;
}

std::string TraceRecorder::to_chrome_json() const {
  TraceState& st = state();
  std::lock_guard<std::mutex> lock(st.mutex);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::uint64_t s = st.oldest(); s < st.next_seq; ++s) {
    const TraceEvent& ev = st.slots[s % st.capacity];
    if (!first) out += ',';
    first = false;
    append_event_json(out, ev.name, ev.start_sec, ev.dur_sec, 1, ev.tid,
                      st.t0_sec);
  }
  for (const ForeignEvent& fe : st.foreign) {
    if (!first) out += ',';
    first = false;
    append_event_json(out, fe.ev.name, fe.ev.start_sec, fe.ev.dur_sec, fe.pid,
                      fe.ev.tid, st.t0_sec);
  }
  out += "]}";
  return out;
}

}  // namespace rlccd
