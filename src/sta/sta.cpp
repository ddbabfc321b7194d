#include "sta/sta.h"

#include <algorithm>
#include <cmath>

#include "common/finite.h"

namespace rlccd {

namespace {
constexpr double kInf = 1e30;
// kOhm * fF = ps; convert wire Elmore products to ns.
constexpr double kPsToNs = 1e-3;
// Fraction of wire delay added to the propagated transition.
constexpr double kWireSlewFactor = 0.3;
}  // namespace

Sta::Sta(const Netlist* netlist, StaConfig config, double clock_period)
    : netlist_(netlist), config_(config), clock_(clock_period) {
  RLCCD_EXPECTS(netlist != nullptr);
  RLCCD_EXPECTS(clock_period > 0.0);
  MetricsRegistry& reg = MetricsRegistry::global();
  ctr_full_runs_ = &reg.counter("sta.full_runs");
  ctr_incremental_updates_ = &reg.counter("sta.incremental_updates");
  ctr_forward_pins_ = &reg.counter("sta.pin_updates.forward");
  ctr_backward_pins_ = &reg.counter("sta.pin_updates.backward");
  ctr_relevel_batches_ = &reg.counter("sta.relevel_batches");
  hist_update_pins_ = &reg.histogram("sta.update.pin_updates");
}

void Sta::flush_stats_to_registry() {
  ctr_full_runs_->add(stats_.full_runs - flushed_stats_.full_runs);
  ctr_incremental_updates_->add(stats_.incremental_updates -
                                flushed_stats_.incremental_updates);
  const std::uint64_t pins =
      stats_.pin_updates() - flushed_stats_.pin_updates();
  ctr_forward_pins_->add(stats_.forward_pin_updates -
                         flushed_stats_.forward_pin_updates);
  ctr_backward_pins_->add(stats_.backward_pin_updates -
                          flushed_stats_.backward_pin_updates);
  ctr_relevel_batches_->add(stats_.relevel_batches -
                            flushed_stats_.relevel_batches);
  if (pins > 0) hist_update_pins_->record(static_cast<double>(pins));
  flushed_stats_ = stats_;
}

double Sta::wire_delay(PinId sink) const {
  const Netlist& nl = *netlist_;
  const Pin& p = nl.pin(sink);
  const Tech& tech = nl.library().tech();
  double dist = nl.sink_distance(sink);
  double sink_cap = nl.lib_cell(p.cell).pin_cap(p.index);
  double r = tech.wire_res_per_um * dist;
  double c = tech.wire_cap_per_um * dist;
  return kPsToNs * r * (0.5 * c + sink_cap);
}

void Sta::set_margin(PinId endpoint, double margin) {
  if (margins_.set(endpoint, margin)) margin_dirty_.push_back(endpoint);
}

void Sta::clear_margins() {
  for (PinId ep : margins_.active()) margin_dirty_.push_back(ep);
  margins_.clear();
}

double Sta::endpoint_required(PinId endpoint) const {
  const Netlist& nl = *netlist_;
  const Pin& p = nl.pin(endpoint);
  const LibCell& lc = nl.lib_cell(p.cell);
  double margin = margins_.get(endpoint);
  if (lc.is_sequential()) {
    return clock_.period() + clock_arrival(p.cell) - lc.setup_time - margin;
  }
  return clock_.period() - config_.output_delay - margin;
}

void Sta::run() {
  RLCCD_SPAN("sta_run");
  const Netlist& nl = *netlist_;
  bool underflow = false;
  std::span<const Mutation> pending =
      nl.journal().since(journal_cursor_, &underflow);
  bool structural = underflow || !graph_.built() ||
                    graph_.num_cells() != nl.num_cells();
  if (!structural) {
    for (const Mutation& m : pending) {
      if (m.kind == MutationKind::Structural) {
        structural = true;
        break;
      }
    }
  }
  if (structural) graph_.build(nl);
  journal_cursor_ = nl.journal().seq();
  clock_.ack_dirty();
  margin_dirty_.clear();
  forward_pass();
  backward_pass();
  ++stats_.full_runs;
  stats_.forward_pin_updates += nl.num_pins();
  stats_.backward_pin_updates += nl.num_pins();
  has_run_ = true;
  flush_stats_to_registry();
}

void Sta::update() {
  const Netlist& nl = *netlist_;
  if (!has_run_ || !config_.incremental) {
    run();
    return;
  }
  bool underflow = false;
  std::span<const Mutation> pending =
      nl.journal().since(journal_cursor_, &underflow);
  if (underflow) {
    run();
    return;
  }
  const bool clock_dirty = !clock_.dirty_flops().empty();
  if (pending.empty() && !clock_dirty && !clock_.period_dirty() &&
      margin_dirty_.empty()) {
    return;  // fully up to date
  }
  if (pending.size() > nl.num_cells()) {
    run();
    return;
  }
  RLCCD_SPAN("sta_update");

  // 1. Patch the levelized topology for structural edits / new cells.
  std::vector<CellId> structural;
  for (const Mutation& m : pending) {
    if (m.kind == MutationKind::Structural) structural.push_back(m.cell);
  }
  std::vector<PinId> new_endpoints;
  if (!structural.empty() || graph_.num_cells() != nl.num_cells()) {
    graph_.apply_structural(nl, structural, &new_endpoints);
    ++stats_.relevel_batches;
  }
  store_.resize(nl.num_pins());

  // 2. Expand journal entries + clock dirt into the seed frontier.
  collect_seeds(pending);
  if (seeds_.size() * 2 > nl.num_cells()) {
    run();  // most of the design is dirty; a full sweep is cheaper
    return;
  }
  ++stats_.incremental_updates;

  // 3. Propagate.
  forward_incremental();
  backward_incremental(new_endpoints);

  journal_cursor_ = nl.journal().seq();
  clock_.ack_dirty();
  margin_dirty_.clear();
  flush_stats_to_registry();
}

// -- seed collection ----------------------------------------------------------

void Sta::add_seed(CellId cell) {
  if (seen_stamp_[cell.index()] == seen_epoch_) return;
  seen_stamp_[cell.index()] = seen_epoch_;
  seeds_.push_back(cell);
}

void Sta::collect_seeds(std::span<const Mutation> pending) {
  const Netlist& nl = *netlist_;
  const std::size_t n = nl.num_cells();
  if (enq_stamp_.size() < n) {
    enq_stamp_.resize(n, 0);
    pull_stamp_.resize(n, 0);
    chg_stamp_.resize(n, 0);
    seen_stamp_.resize(n, 0);
  }
  seen_epoch_ = ++epoch_;
  seeds_.clear();

  // A dirty cell's fanin drivers always join the frontier: their loads (and
  // hence arc delays and output slews) may have shifted with the edit.
  auto expand = [&](CellId id) {
    add_seed(id);
    const Cell& c = nl.cell(id);
    for (PinId in : c.inputs) {
      const Pin& p = nl.pin(in);
      if (!p.net.valid()) continue;
      const Net& net = nl.net(p.net);
      if (net.driver.valid()) add_seed(nl.pin(net.driver).cell);
    }
  };
  // Moves and rewires also change the wire delay / arrival source seen by
  // the cell's fanout, even when the cell's own output timing is unchanged.
  auto expand_consumers = [&](CellId id) {
    const Cell& c = nl.cell(id);
    if (!c.output.valid()) return;
    const Pin& out = nl.pin(c.output);
    if (!out.net.valid()) return;
    for (PinId sink : nl.net(out.net).sinks) {
      add_seed(nl.pin(sink).cell);
    }
  };
  for (const Mutation& m : pending) {
    expand(m.cell);
    if (m.kind != MutationKind::Electrical) expand_consumers(m.cell);
  }
  for (CellId f : clock_.dirty_flops()) add_seed(f);
}

// -- incremental forward ------------------------------------------------------

void Sta::enqueue(CellId cell, bool pull) {
  if (pull) pull_stamp_[cell.index()] = enq_epoch_;
  if (enq_stamp_[cell.index()] == enq_epoch_) return;
  enq_stamp_[cell.index()] = enq_epoch_;
  std::uint32_t lvl = graph_.level(cell);
  if (lvl >= buckets_.size()) buckets_.resize(lvl + 1);
  buckets_[lvl].push_back(cell);
}

void Sta::mark_forward_changed(CellId cell) {
  if (chg_stamp_[cell.index()] == enq_epoch_) return;
  chg_stamp_[cell.index()] = enq_epoch_;
  fchanged_.push_back(cell);
}

int Sta::recompute_sink_pin(PinId sink) {
  const Netlist& nl = *netlist_;
  const std::size_t si = sink.index();
  PinTiming nt{};
  const Pin& p = nl.pin(sink);
  if (p.net.valid()) {
    const Net& net = nl.net(p.net);
    if (net.driver.valid()) {
      const std::size_t di = net.driver.index();
      if (store_.reachable(di)) {
        double wd = wire_delay(sink);
        nt.arrival_max = store_.arrival_max(di) + wd;
        nt.arrival_min = store_.arrival_min(di) + wd;
        nt.slew = store_.slew(di) + kWireSlewFactor * wd;
        nt.reachable = true;
      }
    }
  }
  ++stats_.forward_pin_updates;
  int changed = 0;
  if (nt.slew != store_.slew(si) || nt.reachable != store_.reachable(si)) {
    changed |= kPinElec;
  }
  if (nt.arrival_max != store_.arrival_max(si) ||
      nt.arrival_min != store_.arrival_min(si)) {
    changed |= kPinArrival;
  }
  if (changed != 0) store_.put_forward(si, nt);
  return changed;
}

void Sta::propagate_output_change(const Cell& cell) {
  const Netlist& nl = *netlist_;
  if (!cell.output.valid()) return;
  const Pin& out = nl.pin(cell.output);
  if (!out.net.valid()) return;
  for (PinId sink : nl.net(out.net).sinks) {
    const Pin& sp = nl.pin(sink);
    if (graph_.is_comb(sp.cell)) {
      int changed = recompute_sink_pin(sink);
      if (changed == 0) continue;
      enqueue(sp.cell, /*pull=*/false);
      // A slew/reachability change shifts the consumer's arc delays, which
      // its backward pass must re-derive even if downstream requireds hold.
      if ((changed & kPinElec) != 0) mark_forward_changed(sp.cell);
      continue;
    }
    const LibCell& slc = nl.lib_cell(sp.cell);
    // Ideal clock: CK pins take their timing from the schedule, never from
    // a driving net (matches the full pass).
    if (slc.is_sequential() && sp.index != 0) continue;
    recompute_sink_pin(sink);
  }
}

void Sta::recompute_source_forward(CellId cell_id) {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(cell_id);
  const LibCell& lc = nl.library().cell(c.lib);
  if (lc.kind == CellKind::Input) {
    const Pin& out = nl.pin(c.output);
    double load = out.net.valid() ? nl.net_load_cap(out.net) : 0.0;
    PinTiming nt{};
    nt.arrival_max = config_.input_delay;
    nt.arrival_min = config_.input_delay;
    nt.slew = lc.output_slew(load);
    nt.reachable = true;
    ++stats_.forward_pin_updates;
    if (!store_.forward_equal(c.output.index(), nt)) {
      store_.put_forward(c.output.index(), nt);
      mark_forward_changed(cell_id);
      propagate_output_change(c);
    }
  } else if (lc.is_sequential()) {
    double ck_arrival = clock_arrival(cell_id);
    // CK pin timing (informational).
    PinTiming nck{};
    nck.arrival_max = ck_arrival;
    nck.arrival_min = ck_arrival;
    nck.slew = config_.clock_slew;
    nck.reachable = true;
    ++stats_.forward_pin_updates;
    store_.put_forward(c.inputs[1].index(), nck);
    // Q launch.
    const Pin& out = nl.pin(c.output);
    double load = out.net.valid() ? nl.net_load_cap(out.net) : 0.0;
    PinTiming nq{};
    double d = lc.arc_delay(/*input_pin=*/1, load, config_.clock_slew);
    nq.arrival_max = ck_arrival + d;
    nq.arrival_min = ck_arrival + d;
    nq.slew = lc.output_slew(load);
    nq.reachable = true;
    ++stats_.forward_pin_updates;
    if (!store_.forward_equal(c.output.index(), nq)) {
      store_.put_forward(c.output.index(), nq);
      mark_forward_changed(cell_id);
      propagate_output_change(c);
    }
    // D pin: the cell may have moved or had its fanin rewired.
    recompute_sink_pin(c.inputs[0]);
  } else if (lc.kind == CellKind::Output) {
    recompute_sink_pin(c.inputs[0]);
  }
}

void Sta::recompute_comb_forward(CellId cell_id) {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(cell_id);
  const LibCell& lc = nl.library().cell(c.lib);
  if (pull_stamp_[cell_id.index()] == enq_epoch_) {
    int in_changed = 0;
    for (PinId in : c.inputs) in_changed |= recompute_sink_pin(in);
    if ((in_changed & kPinElec) != 0) mark_forward_changed(cell_id);
  }
  const Pin& out_pin = nl.pin(c.output);
  double load = out_pin.net.valid() ? nl.net_load_cap(out_pin.net) : 0.0;
  PinTiming nt{};
  nt.arrival_max = -kInf;
  nt.arrival_min = kInf;
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const std::size_t ii = c.inputs[i].index();
    if (!store_.reachable(ii)) continue;
    double d = lc.arc_delay(static_cast<int>(i), load, store_.slew(ii));
    nt.arrival_max = std::max(nt.arrival_max, store_.arrival_max(ii) + d);
    nt.arrival_min = std::min(nt.arrival_min, store_.arrival_min(ii) + d);
    nt.reachable = true;
  }
  if (nt.reachable) {
    nt.slew = lc.output_slew(load);
  } else {
    nt.arrival_max = 0.0;
    nt.arrival_min = 0.0;
  }
  ++stats_.forward_pin_updates;
  if (!store_.forward_equal(c.output.index(), nt)) {
    store_.put_forward(c.output.index(), nt);
    propagate_output_change(c);
  }
}

void Sta::forward_incremental() {
  fchanged_.clear();
  enq_epoch_ = ++epoch_;
  for (CellId s : seeds_) {
    if (graph_.is_comb(s)) enqueue(s, /*pull=*/true);
  }
  // Sources (ports, flops) are recomputed immediately; any launch change
  // enqueues its combinational consumers before the level sweep starts.
  for (CellId s : seeds_) {
    if (!graph_.is_comb(s)) recompute_source_forward(s);
  }
  // Comb-to-comb edges strictly increase the level, so processing never
  // appends to the bucket currently being drained — but it can grow
  // buckets_ itself, so never hold a reference across a recompute.
  for (std::uint32_t lvl = 0; lvl < buckets_.size(); ++lvl) {
    for (std::size_t i = 0; i < buckets_[lvl].size(); ++i) {
      recompute_comb_forward(buckets_[lvl][i]);
    }
    buckets_[lvl].clear();
  }
}

// -- incremental backward -----------------------------------------------------

void Sta::push_required_source(PinId sink) {
  const Netlist& nl = *netlist_;
  const Pin& p = nl.pin(sink);
  if (!p.net.valid()) return;
  const Net& net = nl.net(p.net);
  if (!net.driver.valid()) return;
  seed_backward_cell(nl.pin(net.driver).cell);
}

void Sta::seed_backward_cell(CellId cell) {
  if (graph_.is_comb(cell)) {
    enqueue(cell, /*pull=*/false);
    return;
  }
  if (seen_stamp_[cell.index()] == seen_epoch_) return;
  seen_stamp_[cell.index()] = seen_epoch_;
  final_sources_.push_back(cell);
}

double Sta::pull_from_sinks_value(PinId driver_pin) const {
  const Netlist& nl = *netlist_;
  const Pin& p = nl.pin(driver_pin);
  if (!p.net.valid()) return kInf;
  double req = kInf;
  for (PinId sink : nl.net(p.net).sinks) {
    double sink_req = store_.required(sink.index());
    if (sink_req >= kInf) continue;
    req = std::min(req, sink_req - wire_delay(sink));
  }
  return req;
}

void Sta::reseed_endpoint(PinId endpoint, bool force) {
  if (!graph_.is_endpoint(endpoint)) return;
  double req = endpoint_required(endpoint);
  ++stats_.backward_pin_updates;
  if (!force && store_.required(endpoint.index()) == req) return;
  store_.required(endpoint.index()) = req;
  push_required_source(endpoint);
}

void Sta::recompute_comb_backward(CellId cell_id) {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(cell_id);
  const LibCell& lc = nl.library().cell(c.lib);
  double out_req = pull_from_sinks_value(c.output);
  ++stats_.backward_pin_updates;
  store_.required(c.output.index()) = out_req;
  const Pin& out_pin = nl.pin(c.output);
  double load = out_pin.net.valid() ? nl.net_load_cap(out_pin.net) : 0.0;
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const std::size_t ii = c.inputs[i].index();
    double nr = kInf;
    if (out_req < kInf) {
      nr = out_req - lc.arc_delay(static_cast<int>(i), load, store_.slew(ii));
    }
    ++stats_.backward_pin_updates;
    if (nr == store_.required(ii)) continue;
    store_.required(ii) = nr;
    push_required_source(c.inputs[i]);
  }
}

void Sta::repull_output_required(CellId cell_id) {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(cell_id);
  if (!c.output.valid()) return;
  ++stats_.backward_pin_updates;
  store_.required(c.output.index()) = pull_from_sinks_value(c.output);
}

void Sta::backward_incremental(std::span<const PinId> new_endpoints) {
  const Netlist& nl = *netlist_;
  enq_epoch_ = ++epoch_;
  seen_epoch_ = ++epoch_;
  final_sources_.clear();

  // Reseed endpoint required times whose inputs (period, skew, margin,
  // setup time) may have changed.
  if (clock_.period_dirty()) {
    for (PinId ep : graph_.endpoints()) reseed_endpoint(ep, false);
  } else {
    for (PinId ep : margin_dirty_) reseed_endpoint(ep, false);
    for (CellId f : clock_.dirty_flops()) {
      reseed_endpoint(nl.cell(f).inputs[0], false);
    }
    for (CellId s : seeds_) {
      if (nl.is_sequential(s)) reseed_endpoint(nl.cell(s).inputs[0], false);
    }
  }
  for (PinId ep : new_endpoints) reseed_endpoint(ep, true);

  // Seeds (changed loads/wires) and cells whose input slews changed must
  // re-derive their requireds: their arc delays shifted even when every
  // downstream required held. Arrival-only forward changes are skipped —
  // required times never depend on arrivals.
  for (CellId s : seeds_) seed_backward_cell(s);
  for (CellId s : fchanged_) seed_backward_cell(s);

  // Required changes push fanin drivers, which sit at strictly lower
  // levels — the current bucket never grows while draining.
  for (std::uint32_t lvl = static_cast<std::uint32_t>(buckets_.size());
       lvl-- > 0;) {
    for (std::size_t i = 0; i < buckets_[lvl].size(); ++i) {
      recompute_comb_backward(buckets_[lvl][i]);
    }
    buckets_[lvl].clear();
  }
  for (CellId c : final_sources_) repull_output_required(c);
}

// -- full passes --------------------------------------------------------------

void Sta::forward_cell_kernel(CellId id) {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(id);
  const LibCell& lc = nl.library().cell(c.lib);
  const Pin& out_pin = nl.pin(c.output);
  double load = out_pin.net.valid() ? nl.net_load_cap(out_pin.net) : 0.0;
  const std::size_t oi = c.output.index();
  double amax = -kInf;
  double amin = kInf;
  bool reach = false;
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const PinId sink = c.inputs[i];
    const Pin& p = nl.pin(sink);
    if (!p.net.valid()) continue;
    const Net& net = nl.net(p.net);
    if (!net.driver.valid()) continue;
    const std::size_t di = net.driver.index();
    if (!store_.reachable(di)) continue;
    // Pull the input pin through its wire arc (the driver sits on a strictly
    // lower level, so its timing is final).
    const std::size_t ii = sink.index();
    double wd = wire_delay(sink);
    store_.arrival_max(ii) = store_.arrival_max(di) + wd;
    store_.arrival_min(ii) = store_.arrival_min(di) + wd;
    store_.slew(ii) = store_.slew(di) + kWireSlewFactor * wd;
    store_.set_reachable(ii, true);
    double d = lc.arc_delay(static_cast<int>(i), load, store_.slew(ii));
    amax = std::max(amax, store_.arrival_max(ii) + d);
    amin = std::min(amin, store_.arrival_min(ii) + d);
    reach = true;
  }
  if (reach) {
    store_.arrival_max(oi) = amax;
    store_.arrival_min(oi) = amin;
    store_.slew(oi) = lc.output_slew(load);
  } else {
    store_.arrival_max(oi) = 0.0;
    store_.arrival_min(oi) = 0.0;
  }
  store_.set_reachable(oi, reach);
}

void Sta::forward_pass() {
  const Netlist& nl = *netlist_;
  store_.assign(nl.num_pins());

  // Launch from startpoints: primary inputs and flop CK->Q arcs.
  for (const Cell& c : nl.cells()) {
    const LibCell& lc = nl.library().cell(c.lib);
    if (lc.kind == CellKind::Input) {
      const Pin& out = nl.pin(c.output);
      double load = out.net.valid() ? nl.net_load_cap(out.net) : 0.0;
      const std::size_t oi = c.output.index();
      store_.arrival_max(oi) = config_.input_delay;
      store_.arrival_min(oi) = config_.input_delay;
      store_.slew(oi) = lc.output_slew(load);
      store_.set_reachable(oi, true);
    } else if (lc.is_sequential()) {
      double ck_arrival = clock_arrival(c.id);
      // CK pin timing (informational).
      const std::size_t cki = c.inputs[1].index();
      store_.arrival_max(cki) = ck_arrival;
      store_.arrival_min(cki) = ck_arrival;
      store_.slew(cki) = config_.clock_slew;
      store_.set_reachable(cki, true);
      // Q launch.
      const Pin& out = nl.pin(c.output);
      double load = out.net.valid() ? nl.net_load_cap(out.net) : 0.0;
      double d = lc.arc_delay(/*input_pin=*/1, load, config_.clock_slew);
      const std::size_t oi = c.output.index();
      store_.arrival_max(oi) = ck_arrival + d;
      store_.arrival_min(oi) = ck_arrival + d;
      store_.slew(oi) = lc.output_slew(load);
      store_.set_reachable(oi, true);
    }
  }

  // Combinational propagation in ascending level order.
  for (CellId cell : graph_.order()) forward_cell_kernel(cell);

  // Endpoint pins (flop D, primary-output inputs) receive their net arcs.
  for (const Cell& c : nl.cells()) {
    const LibCell& lc = nl.library().cell(c.lib);
    if (!lc.is_sequential() && lc.kind != CellKind::Output) continue;
    const PinId sink = c.inputs[0];
    const Pin& p = nl.pin(sink);
    if (!p.net.valid()) continue;
    const Net& net = nl.net(p.net);
    if (!net.driver.valid()) continue;
    const std::size_t di = net.driver.index();
    if (!store_.reachable(di)) continue;
    const std::size_t ii = sink.index();
    double wd = wire_delay(sink);
    store_.arrival_max(ii) = store_.arrival_max(di) + wd;
    store_.arrival_min(ii) = store_.arrival_min(di) + wd;
    store_.slew(ii) = store_.slew(di) + kWireSlewFactor * wd;
    store_.set_reachable(ii, true);
  }
}

void Sta::backward_cell_kernel(CellId id) {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(id);
  const LibCell& lc = nl.library().cell(c.lib);
  // Pull through the output net: sink requireds live on this cell's
  // consumers (strictly higher levels) or endpoint pins (seeded).
  double out_req = pull_from_sinks_value(c.output);
  store_.required(c.output.index()) = out_req;
  const Pin& out_pin = nl.pin(c.output);
  double load = out_pin.net.valid() ? nl.net_load_cap(out_pin.net) : 0.0;
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const std::size_t ii = c.inputs[i].index();
    if (out_req >= kInf) continue;
    double d = lc.arc_delay(static_cast<int>(i), load, store_.slew(ii));
    store_.required(ii) = out_req - d;
  }
}

void Sta::backward_pass() {
  const Netlist& nl = *netlist_;
  std::vector<double>& required = store_.required_array();
  std::fill(required.begin(), required.end(), kInf);

  // Seed endpoint required times.
  for (PinId ep : graph_.endpoints()) {
    required[ep.index()] = endpoint_required(ep);
  }

  // Descending level order: consumers' input requireds exist before the
  // producing cell pulls them through its output net.
  std::span<const CellId> order = graph_.order();
  for (std::size_t i = order.size(); i-- > 0;) backward_cell_kernel(order[i]);

  // Startpoint output pins (flop Q, primary inputs).
  for (const Cell& c : nl.cells()) {
    const LibCell& lc = nl.library().cell(c.lib);
    if (lc.is_sequential() || lc.kind == CellKind::Input) {
      required[c.output.index()] = pull_from_sinks_value(c.output);
    }
  }
}

// -- queries ------------------------------------------------------------------

double Sta::slack(PinId pin) const {
  const std::size_t i = pin.index();
  RLCCD_EXPECTS(i < store_.size());
  if (!store_.reachable(i) || store_.required(i) >= kInf) return kInf;
  return store_.required(i) - store_.arrival_max(i);
}

double Sta::cell_worst_slack(CellId cell_id) const {
  const Netlist& nl = *netlist_;
  const Cell& c = nl.cell(cell_id);
  const LibCell& lc = nl.library().cell(c.lib);
  if (lc.kind == CellKind::Output) return slack(c.inputs[0]);
  double s = slack(c.output);
  if (lc.is_sequential()) s = std::min(s, endpoint_slack(c.inputs[0]));
  return s;
}

double Sta::endpoint_slack(PinId endpoint) const {
  RLCCD_EXPECTS(is_endpoint(endpoint));
  const std::size_t i = endpoint.index();
  if (!store_.reachable(i)) return kInf;
  return store_.required(i) - store_.arrival_max(i);
}

double Sta::endpoint_hold_slack(PinId endpoint) const {
  RLCCD_EXPECTS(is_endpoint(endpoint));
  const Netlist& nl = *netlist_;
  const Pin& p = nl.pin(endpoint);
  const std::size_t i = endpoint.index();
  if (!store_.reachable(i)) return kInf;
  const LibCell& lc = nl.lib_cell(p.cell);
  if (!lc.is_sequential()) return kInf;  // no hold check at primary outputs
  double capture = clock_arrival(p.cell);
  return store_.arrival_min(i) - (capture + lc.hold_time);
}

std::vector<double> Sta::endpoint_slacks(
    std::span<const PinId> endpoints) const {
  std::vector<double> slacks;
  slacks.reserve(endpoints.size());
  for (PinId ep : endpoints) {
    slacks.push_back(is_endpoint(ep) ? endpoint_slack(ep) : kInf);
  }
  return slacks;
}

std::vector<PinId> Sta::endpoint_violations() const {
  std::vector<PinId> out;
  for (PinId ep : graph_.endpoints()) {
    double s = endpoint_slack(ep);
    if (s < 0.0 && s > -kInf) out.push_back(ep);
  }
  return out;
}

TimingSummary Sta::summary() const {
  TimingSummary s;
  s.num_endpoints = graph_.endpoints().size();
  s.worst_hold_slack = kInf;
  for (PinId ep : graph_.endpoints()) {
    double sl = endpoint_slack(ep);
    if (sl >= kInf) continue;  // unconstrained (kInf sentinel, not a number)
    RLCCD_CHECK_FINITE(sl);
    if (sl < 0.0) {
      s.wns = std::min(s.wns, sl);
      s.tns += sl;
      ++s.nve;
    }
    double hs = endpoint_hold_slack(ep);
    s.worst_hold_slack = std::min(s.worst_hold_slack, hs);
  }
  RLCCD_CHECK_FINITE(s.tns);
  RLCCD_CHECK_FINITE(s.wns);
  return s;
}

}  // namespace rlccd
