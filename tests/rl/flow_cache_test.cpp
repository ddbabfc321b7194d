// FlowOutcomeCache unit tests: probe/insert round-trips, refresh in place,
// the byte budget (a full cache stores nothing more and evicts nothing; a
// budget past the address space saturates), and exact books under
// concurrent probes and inserts.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "rl/evaluator.h"
#include "rl/flow_cache.h"

namespace rlccd {
namespace {

Hash128 make_key(std::uint64_t id) { return hash128(id, 0x5eedbeef); }

EvalOutcome make_outcome(double tns) {
  EvalOutcome o;
  o.summary.wns = tns / 8.0;
  o.summary.tns = tns;
  o.summary.nve = 5;
  o.summary.num_endpoints = 40;
  o.reward = -tns;
  o.flow_ran = true;
  return o;
}

TEST(FlowCacheTest, MissInsertHitRoundTrip) {
  FlowOutcomeCache cache(8);
  const Hash128 key = make_key(7);

  EvalOutcome out;
  EXPECT_FALSE(cache.probe(key, out));

  const EvalOutcome stored = make_outcome(-12.5);
  cache.insert(key, stored);

  ASSERT_TRUE(cache.probe(key, out));
  EXPECT_TRUE(out.cache_hit);  // probe marks served-from-cache
  EXPECT_EQ(out.summary.tns, stored.summary.tns);
  EXPECT_EQ(out.summary.wns, stored.summary.wns);
  EXPECT_EQ(out.summary.nve, stored.summary.nve);
  EXPECT_TRUE(out.flow_ran);

  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.hit_rate(), 0.5);
}

TEST(FlowCacheTest, EmptyCacheReportsZeroHitRate) {
  FlowOutcomeCache cache(1);
  EXPECT_EQ(cache.stats().hit_rate(), 0.0);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(FlowCacheTest, ReinsertSameKeyRefreshesInPlace) {
  FlowOutcomeCache cache(1);
  const Hash128 key = make_key(1);
  cache.insert(key, make_outcome(-1.0));
  cache.insert(key, make_outcome(-2.0));

  EvalOutcome out;
  ASSERT_TRUE(cache.probe(key, out));
  EXPECT_EQ(out.summary.tns, -2.0);  // latest value won
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(FlowCacheTest, TinyBudgetStaysBoundedUnderPressure) {
  // A 1 MiB cache hammered with 10x the pairs that fit must stop storing at
  // its budget. Nothing is evicted: the first keys stay, the later ones are
  // not stored.
  FlowOutcomeCache cache(1);
  const std::size_t bound =
      (std::size_t{1} << 20) / (sizeof(Hash128) + sizeof(EvalOutcome));
  const std::size_t n = 10 * bound;
  for (std::size_t i = 0; i < n; ++i) {
    cache.insert(make_key(i), make_outcome(-1.0));
  }

  EXPECT_GT(cache.stats().entries, 0u);
  EXPECT_LE(cache.stats().entries, bound);
  EvalOutcome out;
  EXPECT_TRUE(cache.probe(make_key(0), out));
  EXPECT_FALSE(cache.probe(make_key(n - 1), out));
}

TEST(FlowCacheTest, HugeBudgetDoesNotWrap) {
  // (2^44 - 1) MiB in bytes does not fit a 64-bit size; the budget must
  // saturate rather than wrap, and the cache work as usual.
  FlowOutcomeCache cache((std::size_t{1} << 44) - 1);
  const Hash128 key = make_key(3);
  EvalOutcome out;
  EXPECT_FALSE(cache.probe(key, out));
  cache.insert(key, make_outcome(-3.0));
  ASSERT_TRUE(cache.probe(key, out));
  EXPECT_EQ(out.summary.tns, -3.0);
}

TEST(FlowCacheTest, ConcurrentProbesAndInsertsKeepExactBooks) {
  // 4 threads each probe and then insert 1,000 keys: the first half shared
  // by all threads, the second half private to one thread. Whatever the
  // interleaving, every probe is counted once, every key is stored once,
  // and every key then hits with its value.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 1000;
  constexpr std::uint64_t kShared = kKeys / 2;
  auto key_id = [](int thread, std::uint64_t i) {
    return i < kShared ? i : static_cast<std::uint64_t>(thread + 1) * kKeys + i;
  };
  FlowOutcomeCache cache(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &key_id, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t id = key_id(t, i);
        EvalOutcome out;
        (void)cache.probe(make_key(id), out);
        cache.insert(make_key(id), make_outcome(-static_cast<double>(id)));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const FlowOutcomeCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, kThreads * kKeys);
  EXPECT_EQ(st.entries, kShared + kThreads * (kKeys - kShared));
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      const std::uint64_t id = key_id(t, i);
      EvalOutcome out;
      ASSERT_TRUE(cache.probe(make_key(id), out)) << t << "/" << i;
      EXPECT_EQ(out.summary.tns, -static_cast<double>(id));
    }
  }
}

}  // namespace
}  // namespace rlccd
