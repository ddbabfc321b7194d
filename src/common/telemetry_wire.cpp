#include "common/telemetry_wire.h"

#include <algorithm>

#include "common/ipc.h"

namespace rlccd {

namespace {

// Span trees are shallow in practice ("rollout" > "flow" > passes); a depth
// cap keeps a corrupt frame from recursing the decoder into the ground.
constexpr int kMaxSpanDepth = 64;

void append_span(std::string& out, const SpanNode& node) {
  ipc_append_string(out, node.name);
  ipc_append_pod(out, node.count);
  ipc_append_pod(out, node.total_sec);
  ipc_append_pod(out, static_cast<std::uint32_t>(node.children.size()));
  for (const SpanNode& child : node.children) append_span(out, child);
}

Status parse_span(std::string_view bytes, std::size_t& offset, SpanNode& node,
                  int depth) {
  if (depth > kMaxSpanDepth) {
    return Status::corrupt("span tree deeper than %d levels", kMaxSpanDepth);
  }
  RLCCD_TRY(ipc_parse_string(bytes, offset, node.name, "span name"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, node.count, "span count"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, node.total_sec, "span seconds"));
  std::uint32_t n_children = 0;  // name length, count, seconds, child count
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_children, 24, "span child count"));
  node.children.resize(n_children);
  for (SpanNode& child : node.children) {
    RLCCD_TRY(parse_span(bytes, offset, child, depth + 1));
  }
  return Status();
}

void append_histogram_snapshot(std::string& out,
                               const MetricsHistogram::Snapshot& h) {
  ipc_append_pod(out, h.count);
  ipc_append_pod(out, h.sum);
  ipc_append_pod(out, h.min);
  ipc_append_pod(out, h.max);
  ipc_append_pod(out, static_cast<std::uint32_t>(h.buckets.size()));
  for (const auto& [exponent, n] : h.buckets) {
    ipc_append_pod(out, static_cast<std::int32_t>(exponent));
    ipc_append_pod(out, n);
  }
}

Status parse_histogram_snapshot(std::string_view bytes, std::size_t& offset,
                                MetricsHistogram::Snapshot& h) {
  RLCCD_TRY(ipc_parse_pod(bytes, offset, h.count, "histogram count"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, h.sum, "histogram sum"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, h.min, "histogram min"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, h.max, "histogram max"));
  std::uint32_t n_buckets = 0;  // i32 exponent + u64 count each
  RLCCD_TRY(
      ipc_parse_count(bytes, offset, n_buckets, 12, "histogram bucket count"));
  h.buckets.resize(n_buckets);
  for (auto& [exponent, n] : h.buckets) {
    std::int32_t e = 0;
    RLCCD_TRY(ipc_parse_pod(bytes, offset, e, "bucket exponent"));
    exponent = e;
    RLCCD_TRY(ipc_parse_pod(bytes, offset, n, "bucket count"));
  }
  return Status();
}

// Subtract `base` from `cur` under `out` (out.name already unset for the
// synthetic root): children whose counts did not move are dropped.
void span_delta_into(const SpanNode& cur, const SpanNode* base,
                     SpanNode& out) {
  out.name = cur.name;
  out.count = cur.count - (base != nullptr ? base->count : 0);
  out.total_sec = cur.total_sec - (base != nullptr ? base->total_sec : 0.0);
  for (const SpanNode& c : cur.children) {
    const SpanNode* bc = base != nullptr ? base->find_child(c.name) : nullptr;
    SpanNode child_out;
    span_delta_into(c, bc, child_out);
    if (child_out.count > 0 || !child_out.children.empty()) {
      out.children.push_back(std::move(child_out));
    }
  }
}

}  // namespace

void append_telemetry_snapshot(std::string& out,
                               const TelemetrySnapshot& snap) {
  ipc_append_pod(out, static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    ipc_append_string(out, name);
    ipc_append_pod(out, value);
  }
  ipc_append_pod(out, static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    ipc_append_string(out, name);
    ipc_append_pod(out, value);
  }
  ipc_append_pod(out, static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    ipc_append_string(out, name);
    append_histogram_snapshot(out, h);
  }
  append_span(out, snap.spans);
}

Status parse_telemetry_snapshot(std::string_view bytes, std::size_t& offset,
                                TelemetrySnapshot& snap) {
  // A counter or gauge is at least a name length and an 8-byte value.
  std::uint32_t n_counters = 0;
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_counters, 12, "counter count"));
  snap.counters.resize(n_counters);
  for (auto& [name, value] : snap.counters) {
    RLCCD_TRY(ipc_parse_string(bytes, offset, name, "counter name"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, value, "counter value"));
  }
  std::uint32_t n_gauges = 0;
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_gauges, 12, "gauge count"));
  snap.gauges.resize(n_gauges);
  for (auto& [name, value] : snap.gauges) {
    RLCCD_TRY(ipc_parse_string(bytes, offset, name, "gauge name"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, value, "gauge value"));
  }
  // Name length, count, sum, min, max and bucket count at least.
  std::uint32_t n_histograms = 0;
  RLCCD_TRY(
      ipc_parse_count(bytes, offset, n_histograms, 40, "histogram count"));
  snap.histograms.resize(n_histograms);
  for (auto& [name, h] : snap.histograms) {
    RLCCD_TRY(ipc_parse_string(bytes, offset, name, "histogram name"));
    RLCCD_TRY(parse_histogram_snapshot(bytes, offset, h));
  }
  RLCCD_TRY(parse_span(bytes, offset, snap.spans, 0));
  return Status();
}

TelemetrySnapshot snapshot_delta(const TelemetrySnapshot& current,
                                 const TelemetrySnapshot& baseline) {
  TelemetrySnapshot delta;
  for (const auto& [name, value] : current.counters) {
    const std::uint64_t base = baseline.counter(name);
    if (value > base) delta.counters.emplace_back(name, value - base);
  }
  for (const auto& [name, value] : current.gauges) {
    // Ship changed levels only; the parent keeps the last value it saw.
    bool had = false;
    for (const auto& [bn, bv] : baseline.gauges) {
      if (bn == name) {
        had = true;
        if (bv != value) delta.gauges.emplace_back(name, value);
        break;
      }
    }
    if (!had) delta.gauges.emplace_back(name, value);
  }
  for (const auto& [name, h] : current.histograms) {
    const MetricsHistogram::Snapshot* base = baseline.histogram(name);
    if (base == nullptr) {
      if (h.count > 0) delta.histograms.emplace_back(name, h);
      continue;
    }
    if (h.count <= base->count) continue;  // nothing recorded since baseline
    MetricsHistogram::Snapshot d;
    d.count = h.count - base->count;
    d.sum = h.sum - base->sum;
    // Cumulative min/max: the parent's merge widens, so shipping the
    // process-lifetime bounds repeatedly is idempotent and always correct.
    d.min = h.min;
    d.max = h.max;
    std::size_t b = 0;
    for (const auto& [exponent, n] : h.buckets) {
      while (b < base->buckets.size() && base->buckets[b].first < exponent) {
        ++b;
      }
      std::uint64_t base_n =
          (b < base->buckets.size() && base->buckets[b].first == exponent)
              ? base->buckets[b].second
              : 0;
      if (n > base_n) d.buckets.emplace_back(exponent, n - base_n);
    }
    delta.histograms.emplace_back(name, std::move(d));
  }
  span_delta_into(current.spans, &baseline.spans, delta.spans);
  return delta;
}

TelemetryDeltaTracker::TelemetryDeltaTracker()
    : base_(MetricsRegistry::global().snapshot()) {}

TelemetrySnapshot TelemetryDeltaTracker::take() {
  TelemetrySnapshot current = MetricsRegistry::global().snapshot();
  TelemetrySnapshot delta = snapshot_delta(current, base_);
  base_ = std::move(current);
  return delta;
}

std::string ObsDelta::encode() const {
  std::string out;
  ipc_append_pod(out, kVersion);
  ipc_append_pod(out, seq);
  ipc_append_pod(out, source_pid);
  append_telemetry_snapshot(out, telemetry);
  ipc_append_pod(out, static_cast<std::uint32_t>(trace_events.size()));
  for (const CollectedTraceEvent& ev : trace_events) {
    ipc_append_string(out, ev.name);
    ipc_append_pod(out, ev.start_sec);
    ipc_append_pod(out, ev.dur_sec);
    ipc_append_pod(out, static_cast<std::int32_t>(ev.tid));
  }
  return out;
}

Status ObsDelta::decode(std::string_view bytes) {
  std::size_t offset = 0;
  std::uint8_t version = 0;
  RLCCD_TRY(ipc_parse_pod(bytes, offset, version, "obs delta version"));
  if (version != kVersion) {
    return Status::corrupt("obs delta version %u, expected %u", version,
                           kVersion);
  }
  RLCCD_TRY(ipc_parse_pod(bytes, offset, seq, "obs delta seq"));
  RLCCD_TRY(ipc_parse_pod(bytes, offset, source_pid, "obs delta pid"));
  RLCCD_TRY(parse_telemetry_snapshot(bytes, offset, telemetry));
  std::uint32_t n_trace = 0;  // name length, start, dur, tid at least
  RLCCD_TRY(ipc_parse_count(bytes, offset, n_trace, 24, "trace event count"));
  trace_events.resize(n_trace);
  for (CollectedTraceEvent& ev : trace_events) {
    RLCCD_TRY(ipc_parse_string(bytes, offset, ev.name, "trace event name"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, ev.start_sec, "trace event start"));
    RLCCD_TRY(ipc_parse_pod(bytes, offset, ev.dur_sec, "trace event dur"));
    std::int32_t tid = 0;
    RLCCD_TRY(ipc_parse_pod(bytes, offset, tid, "trace event tid"));
    ev.tid = tid;
  }
  if (offset != bytes.size()) {
    return Status::corrupt("obs delta has %zu trailing bytes",
                           bytes.size() - offset);
  }
  return Status();
}

}  // namespace rlccd
