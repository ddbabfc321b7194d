// FlowOutcomeCache unit tests: probe/insert round-trips, the sharded
// cluster geometry, and the replacement policy (empty way > stalest
// generation > cheapest flow) under a deliberately tiny budget — the
// behavior `--flow-cache-mb 1` buys. Keys are hand-crafted to land in a
// chosen shard/cluster: the shard index is the key's top 4 bits
// (hi >> 60) and the cluster index is `lo & cluster_mask`, so a salt
// placed above the mask bits varies the key without moving it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/hash.h"
#include "rl/evaluator.h"
#include "rl/flow_cache.h"

namespace rlccd {
namespace {

Hash128 make_key(std::uint64_t shard, std::uint64_t cluster,
                 std::uint64_t salt) {
  return Hash128{cluster | (salt << 40), shard << 60};
}

EvalOutcome make_outcome(double tns, double flow_sec) {
  EvalOutcome o;
  o.summary.wns = tns / 8.0;
  o.summary.tns = tns;
  o.summary.nve = 5;
  o.summary.num_endpoints = 40;
  o.reward = -tns;
  o.flow_ran = true;
  o.flow_sec = flow_sec;
  o.sta_pin_updates = 1234;
  return o;
}

TEST(FlowCacheTest, MissInsertHitRoundTrip) {
  FlowOutcomeCache cache(8);
  const Hash128 key = make_key(3, 1, 7);

  EvalOutcome out;
  EXPECT_FALSE(cache.probe(key, out));

  const EvalOutcome stored = make_outcome(-12.5, 0.25);
  cache.insert(key, stored);

  ASSERT_TRUE(cache.probe(key, out));
  EXPECT_TRUE(out.cache_hit);  // probe marks served-from-cache
  EXPECT_EQ(out.summary.tns, stored.summary.tns);
  EXPECT_EQ(out.summary.wns, stored.summary.wns);
  EXPECT_EQ(out.summary.nve, stored.summary.nve);
  EXPECT_EQ(out.flow_sec, stored.flow_sec);
  EXPECT_EQ(out.sta_pin_updates, stored.sta_pin_updates);
  EXPECT_TRUE(out.flow_ran);

  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.insertions, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.used_entries, 1u);
  EXPECT_EQ(st.hit_rate(), 0.5);
}

TEST(FlowCacheTest, EmptyCacheReportsZeroHitRate) {
  FlowOutcomeCache cache(1);
  EXPECT_EQ(cache.stats().hit_rate(), 0.0);
  EXPECT_GT(cache.capacity_bytes(), 0u);
  EXPECT_GE(cache.stats().capacity_entries,
            FlowOutcomeCache::kShards * FlowOutcomeCache::kWays);
}

TEST(FlowCacheTest, ReinsertSameKeyRefreshesInPlace) {
  FlowOutcomeCache cache(1);
  const Hash128 key = make_key(0, 0, 1);
  cache.insert(key, make_outcome(-1.0, 0.1));
  cache.insert(key, make_outcome(-2.0, 0.2));

  EvalOutcome out;
  ASSERT_TRUE(cache.probe(key, out));
  EXPECT_EQ(out.summary.tns, -2.0);  // latest value won

  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.insertions, 2u);
  EXPECT_EQ(st.evictions, 0u);  // refresh, not displacement
  EXPECT_EQ(st.used_entries, 1u);
}

TEST(FlowCacheTest, FullClusterEvictsStalestGeneration) {
  // Fill one 4-way cluster in generation 0, age everything, then touch one
  // entry (probe refreshes its stamp). A fifth insert must displace one of
  // the three stale entries — the cheapest-flow one — and must never touch
  // the refreshed entry.
  FlowOutcomeCache cache(1);
  const Hash128 touched = make_key(0, 2, 1);
  const Hash128 stale_mid = make_key(0, 2, 2);    // flow 3.0
  const Hash128 stale_cheap = make_key(0, 2, 3);  // flow 1.0 -> victim
  const Hash128 stale_dear = make_key(0, 2, 4);   // flow 2.0
  cache.insert(touched, make_outcome(-1.0, 9.0));
  cache.insert(stale_mid, make_outcome(-2.0, 3.0));
  cache.insert(stale_cheap, make_outcome(-3.0, 1.0));
  cache.insert(stale_dear, make_outcome(-4.0, 2.0));

  cache.new_generation();
  EvalOutcome out;
  ASSERT_TRUE(cache.probe(touched, out));  // refresh to the new generation

  const Hash128 fresh = make_key(0, 2, 5);
  cache.insert(fresh, make_outcome(-5.0, 0.5));

  EXPECT_TRUE(cache.probe(touched, out));
  EXPECT_TRUE(cache.probe(stale_mid, out));
  EXPECT_FALSE(cache.probe(stale_cheap, out));  // stale + cheapest: evicted
  EXPECT_TRUE(cache.probe(stale_dear, out));
  EXPECT_TRUE(cache.probe(fresh, out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(FlowCacheTest, CostPreferredReplacementWithinOneGeneration) {
  // All four ways same age: the victim is the outcome that was cheapest to
  // recompute (depth-preferred replacement, flow runtime as depth).
  FlowOutcomeCache cache(1);
  const double costs[] = {4.0, 1.0, 3.0, 2.0};
  for (int i = 0; i < 4; ++i) {
    cache.insert(make_key(1, 3, static_cast<std::uint64_t>(i + 1)),
                 make_outcome(-1.0 * i, costs[i]));
  }
  cache.insert(make_key(1, 3, 9), make_outcome(-9.0, 5.0));

  EvalOutcome out;
  EXPECT_TRUE(cache.probe(make_key(1, 3, 1), out));
  EXPECT_FALSE(cache.probe(make_key(1, 3, 2), out));  // flow_sec 1.0: victim
  EXPECT_TRUE(cache.probe(make_key(1, 3, 3), out));
  EXPECT_TRUE(cache.probe(make_key(1, 3, 4), out));
  EXPECT_TRUE(cache.probe(make_key(1, 3, 9), out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(FlowCacheTest, TinyBudgetStaysBoundedUnderPressure) {
  // A 1 MiB table hammered with 10x its capacity in distinct keys must
  // never grow past its allocation; every insert beyond an empty way is an
  // eviction, and the books must balance exactly.
  FlowOutcomeCache cache(1);
  const std::size_t capacity = cache.stats().capacity_entries;
  ASSERT_GT(capacity, 0u);

  const std::size_t n = 10 * capacity;
  for (std::size_t i = 0; i < n; ++i) {
    cache.insert(hash128(i, 0x5eedbeef), make_outcome(-1.0, 0.1));
  }

  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.insertions, n);
  EXPECT_LE(st.used_entries, capacity);
  EXPECT_GT(st.evictions, 0u);
  // Every insert either filled an empty way or displaced a live entry.
  EXPECT_EQ(st.insertions, st.evictions + st.used_entries);
}

std::size_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int n = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  return n == 2 ? resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                : 0;
}

TEST(FlowCacheTest, TableIsNotResidentUntilWritten) {
  // The table is reserved up front but zero-allocated, so building the
  // trainer's 64 MiB cache must not fault its pages in.
  const std::size_t before = resident_bytes();
  ASSERT_GT(before, 0u);
  FlowOutcomeCache cache(64);
  const std::size_t after = resident_bytes();
  EXPECT_GT(cache.capacity_bytes(), std::size_t{32} << 20);
  EXPECT_LT(after - std::min(after, before), std::size_t{1} << 20);
}

TEST(FlowCacheTest, FreshTableMissesThenHitsInEveryShard) {
  // Fill every way of every cluster of every shard, one key at a time: each
  // key misses on the fresh table and hits after its insert, and no insert
  // displaces another key (the shards' slices partition the table).
  FlowOutcomeCache cache(1);
  const std::size_t capacity = cache.stats().capacity_entries;
  const std::size_t clusters =
      capacity / (FlowOutcomeCache::kShards * FlowOutcomeCache::kWays);
  ASSERT_GT(clusters, 1u);
  std::vector<Hash128> keys;
  for (std::uint64_t shard = 0; shard < FlowOutcomeCache::kShards; ++shard) {
    for (std::uint64_t cluster = 0; cluster < clusters; ++cluster) {
      for (std::uint64_t way = 0; way < FlowOutcomeCache::kWays; ++way) {
        const Hash128 key = make_key(shard, cluster, way + 1);
        EvalOutcome out;
        ASSERT_FALSE(cache.probe(key, out)) << shard << "/" << cluster;
        cache.insert(key, make_outcome(-1.0 * static_cast<double>(keys.size()), 0.5));
        ASSERT_TRUE(cache.probe(key, out)) << shard << "/" << cluster;
        keys.push_back(key);
      }
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EvalOutcome out;
    ASSERT_TRUE(cache.probe(keys[i], out)) << i;
    EXPECT_EQ(out.summary.tns, -1.0 * static_cast<double>(i));
  }
  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.insertions, capacity);
  EXPECT_EQ(st.used_entries, capacity);
  EXPECT_EQ(st.evictions, 0u);
}

}  // namespace
}  // namespace rlccd
