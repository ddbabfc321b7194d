#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "common/trace.h"

namespace rlccd::bench {

namespace {

std::mutex g_mutex;  // guards SpanLog::spans_

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_stack;

int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next++;
  return id;
}

}  // namespace

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

int SpanLog::open(std::string_view name, double start) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::string(name);
  s.start = start;
  s.parent = t_stack.empty() ? -1 : t_stack.back();
  s.tid = thread_id();
  int index;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_stack.push_back(index);
  return index;
}

void SpanLog::close(int index, double end) {
  if (index < 0) return;
  if (!t_stack.empty() && t_stack.back() == index) t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.dur = end - s.start;
}

std::string SpanLog::chrome_events(int pid, double t0_sec) const {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::string out;
  for (const Span& s : spans_) {
    if (!out.empty()) out += ',';
    append_chrome_event(out, "bench:" + s.name, (s.start - t0_sec) * 1e6,
                        s.dur * 1e6, pid, 1000 + s.tid);
  }
  return out;
}

std::string SpanLog::self_time_table() const {
  struct Row {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<double> child_sec(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_sec[static_cast<std::size_t>(s.parent)] += s.dur;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      ++r.count;
      r.total += spans_[i].dur;
      r.self += spans_[i].dur - child_sec[i];
    }
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-34s %7s %11s %11s\n", "span", "count",
                "total_s", "self_s");
  out += line;
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof(line), "%-34s %7llu %11.4f %11.4f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total, r.self);
    out += line;
  }
  return out;
}

BenchSpan::BenchSpan(std::string_view name)
    : start_(now_sec()), index_(SpanLog::global().open(name, start_)) {}

BenchSpan::~BenchSpan() { SpanLog::global().close(index_, now_sec()); }

}  // namespace rlccd::bench
