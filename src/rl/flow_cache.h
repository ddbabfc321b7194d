// Memo of flow outcomes for one training run, keyed by netlist-state hash.
//
// REINFORCE sampling converges: within and across iterations the policy
// repeatedly draws identical endpoint-selection sets, and each one used to
// cost a full placement-flow run. This cache maps the 128-bit state hash of
// (pristine netlist, selection set) to the memoized EvalOutcome, so a
// repeat evaluation skips the entire flow.
//
// It is one mutex-guarded hash map. A training run stores a few hundred
// outcomes, so nothing is ever evicted: the byte budget only caps how many
// (key, outcome) pairs the map takes, and once it is full insert() stores
// nothing more.
//
// Counters: every probe feeds the process-wide train.cache_{hits,misses}
// metrics, so cache behavior shows up in --metrics-json and flows back from
// isolated workers via the telemetry delta on the wire. insert() counts
// nothing, so the trainer adopting a forked child's outcome cannot
// double-count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "rl/evaluator.h"

namespace rlccd {

class FlowOutcomeCache {
 public:
  // Stores at most `capacity_mb` MiB of (key, outcome) pairs; a budget past
  // the address space saturates instead of wrapping.
  explicit FlowOutcomeCache(std::size_t capacity_mb);

  // Looks `key` up; on a hit copies the stored outcome into `out` with
  // cache_hit set.
  bool probe(const Hash128& key, EvalOutcome& out);

  // Stores (or refreshes) the outcome for `key`; a new key is dropped once
  // the budget is full. Cancelled outcomes are the caller's responsibility
  // to withhold — the cache stores whatever it is given.
  void insert(const Hash128& key, const EvalOutcome& outcome);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    [[nodiscard]] double hit_rate() const {
      const std::uint64_t probes = hits + misses;
      return probes == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(probes);
    }
  };
  [[nodiscard]] Stats stats() const;

 private:
  // The key is already SplitMix-mixed; its low word is a fine bucket hash.
  struct KeyHash {
    std::size_t operator()(const Hash128& key) const { return key.lo; }
  };

  mutable std::mutex mutex_;
  std::unordered_map<Hash128, EvalOutcome, KeyHash> map_;
  std::size_t max_entries_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace rlccd
