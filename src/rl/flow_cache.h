// Transposition table of flow outcomes, keyed by netlist-state hash.
//
// REINFORCE sampling converges: within and across iterations the policy
// repeatedly draws identical endpoint-selection sets, and each one used to
// cost a full placement-flow run. This cache maps the 128-bit state hash of
// (pristine netlist, selection set) to the memoized EvalOutcome, so a
// repeat evaluation skips the entire flow.
//
// Structure (in the style of a chess engine's transposition table):
//   * fixed memory budget — the entry array is sized once from
//     `capacity_mb` and never grows; entries are fixed-size (outcomes store
//     no selection, the key is the selection). The array is reserved up
//     front but zero-allocated (an all-zero entry is an empty way), so each
//     page is faulted in on its first write: untouched pages cost no
//     set-up time, no resident memory and nothing in a forked child,
//   * sharding + lock striping — the key's high bits pick one of
//     `kShards` shards, each with its own mutex and entry array, so eight
//     concurrent trainer workers rarely contend,
//   * 4-way clusters — the key's low bits pick a cluster inside the shard;
//     a probe scans the cluster's 4 ways for a full 128-bit key match,
//   * generation aging + cost-preferred replacement — new_generation()
//     (called per training iteration) stamps subsequent inserts; a full
//     cluster evicts the stalest entry first and, within the current
//     generation, the one whose flow was cheapest to recompute (the analog
//     of depth-preferred replacement: protect the expensive outcomes).
//
// Counters: every probe/insert also feeds the process-wide
// train.cache_{hits,misses,insertions,evictions} metrics (plus
// train.cache_bytes once, at construction), so cache behavior shows up in
// --metrics-json and flows back from isolated workers via the telemetry
// delta on the wire.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "common/hash.h"
#include "rl/evaluator.h"

namespace rlccd {

class FlowOutcomeCache {
 public:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kWays = 4;

  // Budget in MiB; the table reserves its full capacity up front (rounded
  // down to whole clusters per shard, at least one cluster each) and each
  // page is faulted in on its first write.
  explicit FlowOutcomeCache(std::size_t capacity_mb);

  // Looks `key` up; on a hit copies the stored outcome into `out` (with
  // cache_hit set) and refreshes the entry's generation stamp.
  bool probe(const Hash128& key, EvalOutcome& out);

  // Inserts (or refreshes) the outcome for `key`. Cancelled outcomes are
  // the caller's responsibility to withhold — the cache stores whatever it
  // is given. `count_global=false` updates the table (and its own stats())
  // without touching the process-wide train.cache_* counters; the trainer
  // uses it when adopting a forked child's outcome whose insert/evict
  // deltas already arrived over the telemetry wire.
  void insert(const Hash128& key, const EvalOutcome& outcome,
              bool count_global = true);

  // Advances the aging clock: entries inserted before the call become
  // staler than everything inserted after, and lose replacement fights
  // against fresher entries. Call once per training iteration.
  void new_generation();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  // live entries displaced by replacement
    std::size_t capacity_entries = 0;
    std::size_t used_entries = 0;
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t probes = hits + misses;
      return probes == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(probes);
    }
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    Hash128 key;
    EvalOutcome outcome;
    std::uint8_t generation = 0;
    bool used = false;
  };

  struct FreeTable {
    void operator()(Entry* table) const { std::free(table); }
  };

  struct Shard {
    mutable std::mutex mutex;
    Entry* entries = nullptr;  // this shard's slice of table_: clusters * kWays
    std::size_t cluster_mask = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Shard& shard_for(const Hash128& key) {
    return shards_[(key.hi >> 60) & (kShards - 1)];
  }
  [[nodiscard]] std::size_t cluster_base(const Shard& s,
                                         const Hash128& key) const {
    return (key.lo & s.cluster_mask) * kWays;
  }

  std::unique_ptr<Entry[], FreeTable> table_;  // calloc'd, all shards
  std::array<Shard, kShards> shards_;
  std::size_t capacity_bytes_ = 0;
  std::uint8_t generation_ = 0;
};

}  // namespace rlccd
