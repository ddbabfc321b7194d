#include "common/telemetry_wire.h"

#include <algorithm>

#include "common/ipc.h"

namespace rlccd {

namespace {

// Span trees are shallow in practice ("rollout" > "flow" > passes); a depth
// cap keeps a corrupt frame from recursing the decoder into the ground.
constexpr int kMaxSpanDepth = 64;

template <class W, class Span>
Status span_fields(W& w, Span& node, int depth) {
  if (depth > kMaxSpanDepth) {
    return Status::corrupt("span tree deeper than %d levels", kMaxSpanDepth);
  }
  RLCCD_TRY(w.string(node.name, "span name"));
  RLCCD_TRY(w.pod(node.count, "span count"));
  RLCCD_TRY(w.pod(node.total_sec, "span seconds"));
  // Name length, count, seconds and child count at least.
  return w.list(kU32, node.children, 24, "span child count",
                [&](auto& child) { return span_fields(w, child, depth + 1); });
}

template <class W, class D>
Status obs_delta_fields(W& w, D& delta) {
  std::uint8_t version = ObsDelta::kVersion;
  RLCCD_TRY(w.pod(version, "obs delta version"));
  if (version != ObsDelta::kVersion) {
    return Status::corrupt("obs delta version %u, expected %u", version,
                           ObsDelta::kVersion);
  }
  RLCCD_TRY(w.pod(delta.seq, "obs delta seq"));
  RLCCD_TRY(w.pod(delta.source_pid, "obs delta pid"));
  RLCCD_TRY(telemetry_snapshot_fields(w, delta.telemetry));
  // Name length, start, dur and tid at least.
  RLCCD_TRY(w.list(kU32, delta.trace_events, 24, "trace event count",
                   [&](auto& ev) {
                     RLCCD_TRY(w.string(ev.name, "trace event name"));
                     RLCCD_TRY(w.pod(ev.start_sec, "trace event start"));
                     RLCCD_TRY(w.pod(ev.dur_sec, "trace event dur"));
                     return w.as(kI32, ev.tid, "trace event tid");
                   }));
  return w.finish();
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

template <class W, class Snapshot>
Status telemetry_snapshot_fields(W& w, Snapshot& snap) {
  // A counter or gauge is at least a name length and an 8-byte value.
  const auto named_value = [&](auto& entry) {
    RLCCD_TRY(w.string(entry.first, "metric name"));
    return w.pod(entry.second, "metric value");
  };
  RLCCD_TRY(w.list(kU32, snap.counters, 12, "counter count", named_value));
  RLCCD_TRY(w.list(kU32, snap.gauges, 12, "gauge count", named_value));
  const auto histogram = [&](auto& entry) {
    auto& h = entry.second;
    RLCCD_TRY(w.string(entry.first, "histogram name"));
    RLCCD_TRY(w.pod(h.count, "histogram count"));
    RLCCD_TRY(w.pod(h.sum, "histogram sum"));
    RLCCD_TRY(w.pod(h.min, "histogram min"));
    RLCCD_TRY(w.pod(h.max, "histogram max"));
    // An i32 exponent and a u64 count each.
    return w.list(kU32, h.buckets, 12, "histogram bucket count",
                  [&](auto& bucket) {
                    RLCCD_TRY(w.as(kI32, bucket.first, "bucket exponent"));
                    return w.pod(bucket.second, "bucket count");
                  });
  };
  // Name length, count, sum, min, max and bucket count at least.
  RLCCD_TRY(w.list(kU32, snap.histograms, 40, "histogram count", histogram));
  return span_fields(w, snap.spans, 0);
}

template Status telemetry_snapshot_fields(ByteWriter&,
                                          const TelemetrySnapshot&);
template Status telemetry_snapshot_fields(ByteReader&, TelemetrySnapshot&);

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
  ByteWriter w(out);
  (void)obs_delta_fields(w, *this);
  return out;
}

Status ObsDelta::decode(std::string_view bytes) {
  ByteReader r(bytes);
  return obs_delta_fields(r, *this);
}

}  // namespace rlccd
