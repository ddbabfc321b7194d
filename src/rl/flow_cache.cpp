#include "rl/flow_cache.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/telemetry.h"

namespace rlccd {

FlowOutcomeCache::FlowOutcomeCache(std::size_t capacity_mb) {
  constexpr std::size_t kMaxMb = std::numeric_limits<std::size_t>::max() >> 20;
  const std::size_t budget_bytes = std::min(capacity_mb, kMaxMb) << 20;
  max_entries_ = budget_bytes / sizeof(std::pair<const Hash128, EvalOutcome>);
}

bool FlowOutcomeCache::probe(const Hash128& key, EvalOutcome& out) {
  static MetricsCounter& ctr_hits =
      MetricsRegistry::global().counter("train.cache_hits");
  static MetricsCounter& ctr_misses =
      MetricsRegistry::global().counter("train.cache_misses");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    ctr_misses.increment();
    return false;
  }
  out = it->second;
  out.cache_hit = true;
  ++hits_;
  ctr_hits.increment();
  return true;
}

void FlowOutcomeCache::insert(const Hash128& key, const EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.size() < max_entries_ || map_.contains(key)) {
    map_.insert_or_assign(key, outcome);
  }
}

FlowOutcomeCache::Stats FlowOutcomeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, map_.size()};
}

}  // namespace rlccd
