#include "rl/flow_cache.h"

#include <algorithm>
#include <new>
#include <type_traits>

#include "common/telemetry.h"

namespace rlccd {

namespace {

// Registry counters, resolved once: the cache is probed on every rollout of
// every training run in the process.
struct CacheCounters {
  MetricsCounter& hits;
  MetricsCounter& misses;
  MetricsCounter& insertions;
  MetricsCounter& evictions;
  MetricsCounter& bytes;
  static CacheCounters& get() {
    static CacheCounters c{
        MetricsRegistry::global().counter("train.cache_hits"),
        MetricsRegistry::global().counter("train.cache_misses"),
        MetricsRegistry::global().counter("train.cache_insertions"),
        MetricsRegistry::global().counter("train.cache_evictions"),
        MetricsRegistry::global().counter("train.cache_bytes"),
    };
    return c;
  }
};

// Age of an entry under a wrapping u8 generation clock: 0 = current.
std::uint8_t entry_age(std::uint8_t current, std::uint8_t generation) {
  return static_cast<std::uint8_t>(current - generation);
}

}  // namespace

FlowOutcomeCache::FlowOutcomeCache(std::size_t capacity_mb) {
  const std::size_t budget_bytes = capacity_mb << 20;
  const std::size_t cluster_bytes = sizeof(Entry) * kWays;
  // Whole clusters per shard, power of two for mask indexing; every shard
  // keeps at least one cluster so a tiny budget still functions (it just
  // evicts aggressively — which is what the eviction tests exercise).
  std::size_t clusters_per_shard =
      std::max<std::size_t>(1, budget_bytes / (cluster_bytes * kShards));
  std::size_t pow2 = 1;
  while (pow2 * 2 <= clusters_per_shard) pow2 *= 2;
  clusters_per_shard = pow2;

  // One zero-allocated table sliced into the shards. An all-zero Entry is
  // an empty way (used == false), so no constructor has to run and no page
  // is touched here: a page is faulted in on its first write, and pages no
  // probe or insert reaches never become resident or get copied into a
  // forked child.
  static_assert(std::is_trivially_copyable_v<Entry> &&
                std::is_trivially_destructible_v<Entry>);
  const std::size_t entries_per_shard = clusters_per_shard * kWays;
  table_.reset(static_cast<Entry*>(
      std::calloc(kShards * entries_per_shard, sizeof(Entry))));
  if (table_ == nullptr) throw std::bad_alloc();
  for (std::size_t i = 0; i < kShards; ++i) {
    shards_[i].entries = table_.get() + i * entries_per_shard;
    shards_[i].cluster_mask = clusters_per_shard - 1;
  }
  capacity_bytes_ = kShards * clusters_per_shard * cluster_bytes;
  CacheCounters::get().bytes.add(capacity_bytes_);
  // Gauge alongside the cumulative counter: the counter sums every cache
  // ever built in this process, the gauge reads the newest level (what a
  // live stats scrape wants). Both count the table reserved up front; the
  // resident part is smaller, since each page is faulted in on its first
  // write.
  MetricsRegistry::global()
      .gauge("train.cache_resident_bytes")
      .set(static_cast<std::int64_t>(capacity_bytes_));
}

bool FlowOutcomeCache::probe(const Hash128& key, EvalOutcome& out) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const std::size_t base = cluster_base(s, key);
  for (std::size_t w = 0; w < kWays; ++w) {
    Entry& e = s.entries[base + w];
    if (e.used && e.key == key) {
      out = e.outcome;
      out.cache_hit = true;
      e.generation = generation_;  // touched: protect from aging out
      ++s.hits;
      CacheCounters::get().hits.increment();
      return true;
    }
  }
  ++s.misses;
  CacheCounters::get().misses.increment();
  return false;
}

void FlowOutcomeCache::insert(const Hash128& key, const EvalOutcome& outcome,
                              bool count_global) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const std::size_t base = cluster_base(s, key);

  // Pick the victim: same key > empty way > stalest generation, ties broken
  // by cheapest stored flow (protect outcomes that are expensive to
  // recompute — the depth-preferred rule of chess transposition tables).
  Entry* victim = nullptr;
  for (std::size_t w = 0; w < kWays; ++w) {
    Entry& e = s.entries[base + w];
    if (e.used && e.key == key) {
      victim = &e;
      break;
    }
    if (victim == nullptr) {
      victim = &e;
      continue;
    }
    if (!victim->used) continue;
    if (!e.used) {
      victim = &e;
      continue;
    }
    const std::uint8_t va = entry_age(generation_, victim->generation);
    const std::uint8_t ea = entry_age(generation_, e.generation);
    if (ea > va ||
        (ea == va && e.outcome.flow_sec < victim->outcome.flow_sec)) {
      victim = &e;
    }
  }

  const bool evicting = victim->used && victim->key != key;
  if (evicting) {
    ++s.evictions;
    if (count_global) CacheCounters::get().evictions.increment();
  }
  if (!victim->used) ++s.used;
  victim->key = key;
  victim->outcome = outcome;
  victim->outcome.cache_hit = false;  // stored outcomes are canonical
  victim->generation = generation_;
  victim->used = true;
  ++s.insertions;
  if (count_global) CacheCounters::get().insertions.increment();
}

void FlowOutcomeCache::new_generation() {
  // The generation stamp is read under each shard's lock during
  // probe/insert; bumping it only needs to be visible eventually, and the
  // trainer calls this from the single training thread between iterations.
  for (Shard& s : shards_) s.mutex.lock();
  ++generation_;
  for (Shard& s : shards_) s.mutex.unlock();
}

FlowOutcomeCache::Stats FlowOutcomeCache::stats() const {
  Stats st;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    st.hits += s.hits;
    st.misses += s.misses;
    st.insertions += s.insertions;
    st.evictions += s.evictions;
    st.used_entries += s.used;
    st.capacity_entries += (s.cluster_mask + 1) * kWays;
  }
  return st;
}

}  // namespace rlccd
