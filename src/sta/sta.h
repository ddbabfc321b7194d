// Graph-based static timing analysis over the netlist.
//
// Full min/max analysis with slew propagation:
//   * forward pass — arrival times (max for setup, min for hold) and output
//     transitions, launched from primary inputs and flop CK->Q arcs,
//   * backward pass — setup required times, so slack is defined at every pin
//     (slack at a flop's Q pin = worst slack among paths *launched* by that
//     flop, which is exactly what the useful-skew engine balances against the
//     flop's capture-side endpoint slack).
//
// Endpoints are flop D pins (setup/hold checked against the same flop's
// adjusted clock arrival) and primary-output pins. Endpoint *margins*
// (set_margin) tighten an endpoint's required time; this is the mechanism
// the paper uses to make the useful-skew engine "over-fix" the RL-selected
// endpoints.
//
// Storage is structure-of-arrays (TimingStore): one flat array per timing
// field, indexed by pin. Callers go through accessors (timing()/slack()/
// per-field getters) and never see the layout.
//
// Each timing rule (an input pin through its wire arc, a flop's CK pin, a
// startpoint's launch, a combinational cell's output, its required times)
// is one private function, shared by the two evaluation modes:
//   * run()    — full recompute of every pin (always correct, O(pins)):
//     one serial sweep over the levelized graph in ascending level order
//     (arrivals), then in descending order (required times), storing every
//     rule's result.
//   * update() — incremental: consumes the netlist's mutation journal, the
//     clock schedule's dirty-flop list and pending margin edits, then
//     re-propagates only the affected cones level-by-level over the
//     levelized TimingGraph, comparing each rule's result with the stored
//     value and stopping as soon as recomputed values stop changing.
//     Produces bit-identical results to run() — recomputed pins see
//     identical inputs through the same rules, so untouched cones keep
//     identical values.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/telemetry.h"
#include "netlist/netlist.h"
#include "sta/clock_schedule.h"
#include "sta/timing_graph.h"
#include "sta/timing_store.h"

namespace rlccd {

// Slack and required time of an untimed pin or endpoint. No timed value
// comes near it, so callers test `>= kUntimed` (or `<= -kUntimed`).
inline constexpr double kUntimed = 1e30;
// Transition at every flop's CK pin under the ideal clock (ns).
inline constexpr double kClockSlew = 0.02;

struct StaConfig {
  // When false, update() always falls back to a full run() — the
  // pre-incremental behavior, kept selectable for benchmarking.
  bool incremental = true;
};

struct TimingSummary {
  double wns = 0.0;       // worst negative slack (0 when all met)
  double tns = 0.0;       // total negative slack (sum of negative endpoint slacks)
  std::size_t nve = 0;    // number of violating endpoints
  std::size_t num_endpoints = 0;
  double worst_hold_slack = 0.0;
};

// Work counters; pin_updates is the cost metric the incremental engine
// minimizes (a full run costs 2 * num_pins).
struct StaStats {
  std::uint64_t full_runs = 0;
  std::uint64_t incremental_updates = 0;
  std::uint64_t forward_pin_updates = 0;
  std::uint64_t backward_pin_updates = 0;
  std::uint64_t relevel_batches = 0;
  [[nodiscard]] std::uint64_t pin_updates() const {
    return forward_pin_updates + backward_pin_updates;
  }
};

class Sta {
 public:
  Sta(const Netlist* netlist, StaConfig config, double clock_period);

  // Non-owning view of the analyzed netlist.
  [[nodiscard]] const Netlist& netlist() const { return *netlist_; }

  [[nodiscard]] ClockSchedule& clock() { return clock_; }
  [[nodiscard]] const ClockSchedule& clock() const { return clock_; }

  // Margin edits are tracked so update() can reseed only the affected
  // endpoints' required times.
  void set_margin(PinId endpoint, double margin);
  void clear_margins();
  [[nodiscard]] const EndpointMargins& margins() const { return margins_; }

  // Recomputes all timing from scratch (rebuilding the topology if the
  // netlist changed structurally) and drains all pending dirt.
  void run();

  // Incremental recompute: propagates only the dirty frontier implied by
  // journaled netlist mutations, clock-schedule edits and margin changes.
  // Equivalent to run(); falls back to it on the first call, when
  // incremental mode is disabled, or when most of the design is dirty.
  void update();

  // -- results (valid after run()/update()) ----------------------------------
  // Materialized per-pin view; prefer the per-field accessors below in hot
  // loops that need only one field.
  [[nodiscard]] PinTiming timing(PinId pin) const {
    RLCCD_EXPECTS(pin.index() < store_.size());
    return store_.get(pin.index());
  }
  [[nodiscard]] double arrival_max(PinId pin) const {
    RLCCD_EXPECTS(pin.index() < store_.size());
    return store_.arrival_max(pin.index());
  }
  [[nodiscard]] double arrival_min(PinId pin) const {
    RLCCD_EXPECTS(pin.index() < store_.size());
    return store_.arrival_min(pin.index());
  }
  [[nodiscard]] double required(PinId pin) const {
    RLCCD_EXPECTS(pin.index() < store_.size());
    return store_.required(pin.index());
  }
  [[nodiscard]] bool reachable(PinId pin) const {
    RLCCD_EXPECTS(pin.index() < store_.size());
    return store_.reachable(pin.index());
  }
  // Setup slack at a pin: required - arrival_max.
  [[nodiscard]] double slack(PinId pin) const;
  // Worst setup slack among all paths through a cell (slack at output pin,
  // or at the endpoint pin for flops/output ports).
  [[nodiscard]] double cell_worst_slack(CellId cell) const;

  // All timing endpoints, in stable (pin-index) order.
  [[nodiscard]] std::span<const PinId> endpoints() const {
    return graph_.endpoints();
  }
  [[nodiscard]] bool is_endpoint(PinId pin) const {
    return graph_.is_endpoint(pin);
  }

  [[nodiscard]] double endpoint_slack(PinId endpoint) const;
  [[nodiscard]] double endpoint_hold_slack(PinId endpoint) const;
  // Bulk form: slack per pin in `endpoints` order; non-endpoints get +inf
  // (callers passing a prioritized list need not pre-filter).
  [[nodiscard]] std::vector<double> endpoint_slacks(
      std::span<const PinId> endpoints) const;
  // Endpoints with slack < 0, in stable order.
  [[nodiscard]] std::vector<PinId> endpoint_violations() const;

  [[nodiscard]] TimingSummary summary() const;

  [[nodiscard]] const StaStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = StaStats{};
    flushed_stats_ = StaStats{};
  }

 private:
  // -- timing rules -----------------------------------------------------------
  // Each returns a value and stores nothing: the full passes store it, the
  // frontier compares it with the stored value first. None counts work.
  // Declared inline (and defined in sta.cpp, their only user) so that GCC
  // inlines them into both sweeps: as plain members it left them as calls,
  // and bench_incremental's full and incremental times rose by 9-20%.
  // An input pin through its net's wire arc; unreachable (all zero) when
  // the net has no timed driver.
  [[nodiscard]] inline PinTiming sink_timing(PinId sink) const;
  // A flop's CK pin: the ideal clock's arrival at this flop.
  [[nodiscard]] inline PinTiming clock_pin_timing(CellId flop) const;
  // A startpoint's output: a primary input, or a flop's CK->Q launch.
  [[nodiscard]] inline PinTiming launch_timing(const Cell& cell) const;
  // A combinational cell's output from the worst arc of its stored inputs.
  [[nodiscard]] inline PinTiming comb_output_timing(const Cell& cell) const;
  // A combinational cell's output required time, pulled from its net's
  // sinks (returned), and each input pin's through the cell arcs, passed
  // to on_input(pin, required).
  template <class OnInput>
  inline double comb_required(const Cell& cell, OnInput&& on_input) const;
  // Wire arc delay from a net's driver to a specific sink pin (ns).
  [[nodiscard]] double wire_delay(PinId sink) const;
  [[nodiscard]] inline double output_load(const Cell& cell) const;

  // -- full passes ------------------------------------------------------------
  void forward_pass();
  void backward_pass();

  // -- incremental machinery --------------------------------------------------
  void collect_seeds(std::span<const Mutation> pending);
  void add_seed(CellId cell);
  void forward_incremental();
  void backward_incremental(std::span<const PinId> new_endpoints);
  // Change classification for a recomputed forward pin. Arrival-only
  // changes shift slacks but leave every required time intact (requireds
  // depend on slews and downstream requireds, never on arrivals), so only
  // kPinElec changes seed the backward pass.
  static constexpr int kPinArrival = 1;
  static constexpr int kPinElec = 2;  // slew or reachability changed
  // Re-applies sink_timing to an input pin, keeping its required time.
  // Returns a bitmask of kPin* changes (0 = none).
  int recompute_sink_pin(PinId sink);
  // Recomputes a port/flop seed: a flop's CK pin first, then the launch and
  // its propagation, then the endpoint (D or output-port) pin.
  void recompute_source_forward(CellId cell);
  void recompute_comb_forward(CellId cell);
  void propagate_output_change(const Cell& cell);
  void recompute_comb_backward(CellId cell);
  // Re-pulls the required time of a startpoint's output pin (flop Q / PI).
  void repull_output_required(CellId cell);
  // Routes a changed-required sink pin to its net's driver cell.
  void push_required_source(PinId sink);
  void seed_backward_cell(CellId cell);
  // Queues a combinational cell for the forward sweep. `pull` forces a
  // re-pull of all its input pins (needed for seeds, whose wire delays or
  // loads changed); frontier cells reached through a changed driver have
  // their affected inputs refreshed by propagate_output_change already.
  void enqueue(CellId cell, bool pull);
  void mark_forward_changed(CellId cell);
  // Reseeds one endpoint's required time; propagates upstream on change.
  void reseed_endpoint(PinId endpoint, bool force);

  [[nodiscard]] double clock_arrival(CellId flop) const {
    return clock_.adjustment(flop);
  }
  [[nodiscard]] double endpoint_required(PinId endpoint) const;
  [[nodiscard]] double pull_from_sinks_value(PinId driver_pin) const;

  const Netlist* netlist_;
  StaConfig config_;
  ClockSchedule clock_;
  EndpointMargins margins_;

  TimingGraph graph_;
  TimingStore store_;  // SoA timing fields, indexed by pin
  bool has_run_ = false;
  std::uint64_t journal_cursor_ = 0;
  std::vector<PinId> margin_dirty_;

  StaStats stats_;
  // Registry mirror: per-instance stats_ deltas are flushed onto the
  // process-wide "sta.*" counters after every run()/update(), keeping the
  // per-pin hot loops free of atomics while the registry (and any active
  // TelemetryScope) still sees every unit of timing work.
  StaStats flushed_stats_;
  MetricsCounter* ctr_full_runs_;
  MetricsCounter* ctr_incremental_updates_;
  MetricsCounter* ctr_forward_pins_;
  MetricsCounter* ctr_backward_pins_;
  MetricsCounter* ctr_relevel_batches_;
  MetricsHistogram* hist_update_pins_;
  void flush_stats_to_registry();

  // Frontier scratch, reused across updates.
  std::vector<std::vector<CellId>> buckets_;  // by level
  std::vector<std::uint32_t> enq_stamp_;      // per cell: queued this phase
  std::vector<std::uint32_t> pull_stamp_;     // per cell: re-pull all inputs
  std::vector<std::uint32_t> chg_stamp_;      // per cell: backward-seed dedup
  std::vector<std::uint32_t> seen_stamp_;     // per cell: seed/source dedup
  std::uint32_t epoch_ = 0;
  std::uint32_t enq_epoch_ = 0;
  std::uint32_t seen_epoch_ = 0;
  std::vector<CellId> seeds_;
  std::vector<CellId> fchanged_;  // cells with an electrical input change
  std::vector<CellId> final_sources_;
};

}  // namespace rlccd
