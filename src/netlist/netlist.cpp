#include "netlist/netlist.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace rlccd {

PinId Netlist::add_pin(CellId cell, PinDir dir, std::uint16_t index) {
  PinId id(static_cast<std::uint32_t>(pins_.size()));
  pins_.push_back(Pin{id, cell, NetId{}, index, dir});
  return id;
}

CellId Netlist::add_cell(LibCellId lib, std::string name) {
  const LibCell& lc = library_->cell(lib);
  CellId id(static_cast<std::uint32_t>(cells_.size()));
  Cell c;
  c.id = id;
  c.lib = lib;
  c.name = std::move(name);
  cells_.push_back(std::move(c));
  Cell& stored = cells_.back();
  stored.inputs.reserve(static_cast<std::size_t>(lc.num_inputs));
  for (int i = 0; i < lc.num_inputs; ++i) {
    stored.inputs.push_back(
        add_pin(id, PinDir::Input, static_cast<std::uint16_t>(i)));
  }
  if (lc.kind != CellKind::Output) {
    stored.output = add_pin(id, PinDir::Output, 0);
  }
  journal_.record(MutationKind::Structural, id);
  return id;
}

NetId Netlist::add_net(std::string name) {
  NetId id(static_cast<std::uint32_t>(nets_.size()));
  Net n;
  n.id = id;
  n.name = std::move(name);
  nets_.push_back(std::move(n));
  wire_stale_.resize((nets_.size() + 63) / 64, 0);
  return id;
}

void Netlist::set_driver(NetId net_id, CellId cell_id) {
  Net& n = nets_[net_id.index()];
  const Cell& c = cell(cell_id);
  RLCCD_EXPECTS(c.output.valid());
  RLCCD_EXPECTS(!n.driver.valid());
  RLCCD_EXPECTS(!pins_[c.output.index()].net.valid());
  n.driver = c.output;
  pins_[c.output.index()].net = net_id;
  mark_wire_stale(net_id);
  journal_.record(MutationKind::Structural, cell_id);
  // Sinks wired before the driver become reachable now.
  for (PinId sink : n.sinks) {
    journal_.record(MutationKind::Structural, pins_[sink.index()].cell);
  }
}

void Netlist::add_sink(NetId net_id, CellId cell_id, int input_index) {
  Net& n = nets_[net_id.index()];
  const Cell& c = cell(cell_id);
  RLCCD_EXPECTS(input_index >= 0 &&
                input_index < static_cast<int>(c.inputs.size()));
  PinId pin_id = c.inputs[static_cast<std::size_t>(input_index)];
  RLCCD_EXPECTS(!pins_[pin_id.index()].net.valid());
  pins_[pin_id.index()].net = net_id;
  n.sinks.push_back(pin_id);
  n.load_cap += sink_cap(pin_id);
  mark_wire_stale(net_id);
  journal_.record(MutationKind::Structural, cell_id);
  // The driver's load grew by the new sink's pin capacitance.
  if (n.driver.valid()) {
    journal_.record(MutationKind::Electrical, pins_[n.driver.index()].cell);
  }
}

void Netlist::move_sink(PinId pin_id, NetId new_net) {
  Pin& p = pins_[pin_id.index()];
  RLCCD_EXPECTS(p.dir == PinDir::Input);
  RLCCD_EXPECTS(p.net.valid());
  Net& old_net = nets_[p.net.index()];
  auto it = std::find(old_net.sinks.begin(), old_net.sinks.end(), pin_id);
  RLCCD_EXPECTS(it != old_net.sinks.end());
  old_net.sinks.erase(it);
  old_net.load_cap = fold_load(old_net);
  mark_wire_stale(p.net);
  p.net = new_net;
  Net& target = nets_[new_net.index()];
  target.sinks.push_back(pin_id);
  target.load_cap += sink_cap(pin_id);
  mark_wire_stale(new_net);
  journal_.record(MutationKind::Structural, p.cell);
  // Both drivers see a load change (and the sink a new arrival source).
  if (old_net.driver.valid()) {
    journal_.record(MutationKind::Electrical, pins_[old_net.driver.index()].cell);
  }
  if (target.driver.valid()) {
    journal_.record(MutationKind::Electrical,
                    pins_[target.driver.index()].cell);
  }
}

void Netlist::swap_input_nets(CellId cell_id, int pin_a, int pin_b) {
  const Cell& c = cell(cell_id);
  RLCCD_EXPECTS(pin_a >= 0 && pin_a < static_cast<int>(c.inputs.size()));
  RLCCD_EXPECTS(pin_b >= 0 && pin_b < static_cast<int>(c.inputs.size()));
  if (pin_a == pin_b) return;
  PinId a = c.inputs[static_cast<std::size_t>(pin_a)];
  PinId b = c.inputs[static_cast<std::size_t>(pin_b)];
  NetId net_a = pins_[a.index()].net;
  NetId net_b = pins_[b.index()].net;
  RLCCD_EXPECTS(net_a.valid() && net_b.valid());
  // Replace pin entries in the two nets' sink lists; each net's load then
  // holds the other pin's cap at that position. Both pins sit on one cell,
  // so neither net's bounding box, hence wire cap, changes.
  auto replace = [&](NetId net_id, PinId from, PinId to) {
    Net& n = nets_[net_id.index()];
    auto it = std::find(n.sinks.begin(), n.sinks.end(), from);
    RLCCD_EXPECTS(it != n.sinks.end());
    *it = to;
    n.load_cap = fold_load(n);
  };
  replace(net_a, a, b);
  replace(net_b, b, a);
  pins_[a.index()].net = net_b;
  pins_[b.index()].net = net_a;
  journal_.record(MutationKind::Structural, cell_id);
}

void Netlist::resize_cell(CellId cell_id, LibCellId new_lib) {
  Cell& c = cells_[cell_id.index()];
  const LibCell& old_lc = library_->cell(c.lib);
  const LibCell& new_lc = library_->cell(new_lib);
  RLCCD_EXPECTS(old_lc.kind == new_lc.kind);
  if (c.lib == new_lib) return;
  c.lib = new_lib;
  // Sink pins whose cap changed re-fold their nets. A DFF's CK pin keeps
  // clock_pin_cap across sizes, so a flop resize never re-folds the clock.
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const int index = static_cast<int>(i);
    if (old_lc.pin_cap(index) == new_lc.pin_cap(index)) continue;
    if (NetId net = pins_[c.inputs[i].index()].net; net.valid()) {
      nets_[net.index()].load_cap = fold_load(nets_[net.index()]);
    }
  }
  journal_.record(MutationKind::Electrical, cell_id);
}

void Netlist::set_position(CellId cell_id, double x, double y) {
  Cell& c = cells_[cell_id.index()];
  if (c.x == x && c.y == y) return;
  c.x = x;
  c.y = y;
  for (PinId in : c.inputs) mark_wire_stale(pins_[in.index()].net);
  if (c.output.valid()) mark_wire_stale(pins_[c.output.index()].net);
  journal_.record(MutationKind::Moved, cell_id);
}

std::vector<CellId> Netlist::sequential_cells() const {
  std::vector<CellId> out;
  for (const Cell& c : cells_) {
    if (library_->cell(c.lib).is_sequential()) out.push_back(c.id);
  }
  return out;
}

std::vector<CellId> Netlist::primary_inputs() const {
  std::vector<CellId> out;
  for (const Cell& c : cells_) {
    if (library_->cell(c.lib).kind == CellKind::Input) out.push_back(c.id);
  }
  return out;
}

std::vector<CellId> Netlist::primary_outputs() const {
  std::vector<CellId> out;
  for (const Cell& c : cells_) {
    if (library_->cell(c.lib).kind == CellKind::Output) out.push_back(c.id);
  }
  return out;
}

std::size_t Netlist::num_real_cells() const {
  std::size_t n = 0;
  for (const Cell& c : cells_) {
    if (!library_->cell(c.lib).is_port()) ++n;
  }
  return n;
}

double Netlist::sink_cap(PinId sink) const {
  const Pin& p = pins_[sink.index()];
  return lib_cell(p.cell).pin_cap(p.index);
}

double Netlist::fold_load(const Net& n) const {
  double cap = n.wire_cap;
  for (PinId sink : n.sinks) cap += sink_cap(sink);
  return cap;
}

void Netlist::mark_wire_stale(NetId net) {
  if (!net.valid()) return;
  wire_stale_[net.index() / 64] |= std::uint64_t{1} << (net.index() % 64);
}

double Netlist::sink_distance(PinId sink) const {
  const Pin& p = pin(sink);
  RLCCD_EXPECTS(p.net.valid());
  const Net& n = net(p.net);
  RLCCD_EXPECTS(n.driver.valid());
  const Cell& drv = cell(pin(n.driver).cell);
  const Cell& snk = cell(p.cell);
  return std::abs(drv.x - snk.x) + std::abs(drv.y - snk.y);
}

double Netlist::net_hpwl(NetId id) const {
  const Net& n = net(id);
  if (!n.driver.valid() && n.sinks.empty()) return 0.0;
  double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
  auto account = [&](PinId pid) {
    const Cell& c = cell(pin(pid).cell);
    min_x = std::min(min_x, c.x);
    max_x = std::max(max_x, c.x);
    min_y = std::min(min_y, c.y);
    max_y = std::max(max_y, c.y);
  };
  if (n.driver.valid()) account(n.driver);
  for (PinId s : n.sinks) account(s);
  return (max_x - min_x) + (max_y - min_y);
}

void Netlist::update_wire_parasitics() {
  const Tech& tech = library_->tech();
  // Words, then bits within a word, in ascending order: ascending net id.
  for (std::size_t w = 0; w < wire_stale_.size(); ++w) {
    for (std::uint64_t bits = std::exchange(wire_stale_[w], 0); bits != 0;
         bits &= bits - 1) {
      Net& n = nets_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      double cap = tech.wire_cap_per_um * net_hpwl(n.id);
      if (cap == n.wire_cap) continue;
      n.wire_cap = cap;
      n.load_cap = fold_load(n);
      // Only the driver's arc sees the load change; sink wire delays use
      // distances, which were journaled when the cells moved.
      if (n.driver.valid()) {
        journal_.record(MutationKind::Electrical,
                        pins_[n.driver.index()].cell);
      }
    }
  }
}

void Netlist::validate() const {
  for (const Cell& c : cells_) {
    const LibCell& lc = library_->cell(c.lib);
    RLCCD_ASSERT(static_cast<int>(c.inputs.size()) == lc.num_inputs);
    RLCCD_ASSERT(c.output.valid() == (lc.kind != CellKind::Output));
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      const Pin& p = pin(c.inputs[i]);
      RLCCD_ASSERT(p.cell == c.id);
      RLCCD_ASSERT(p.dir == PinDir::Input);
      RLCCD_ASSERT(p.index == i);
      if (p.net.valid()) {
        const Net& n = net(p.net);
        RLCCD_ASSERT(std::find(n.sinks.begin(), n.sinks.end(), p.id) !=
                     n.sinks.end());
      }
    }
    if (c.output.valid()) {
      const Pin& p = pin(c.output);
      RLCCD_ASSERT(p.cell == c.id);
      RLCCD_ASSERT(p.dir == PinDir::Output);
      if (p.net.valid()) {
        RLCCD_ASSERT(net(p.net).driver == p.id);
      }
    }
  }
  for (const Net& n : nets_) {
    if (n.driver.valid()) {
      RLCCD_ASSERT(pin(n.driver).net == n.id);
      RLCCD_ASSERT(pin(n.driver).dir == PinDir::Output);
    }
    for (PinId s : n.sinks) {
      RLCCD_ASSERT(pin(s).net == n.id);
      RLCCD_ASSERT(pin(s).dir == PinDir::Input);
    }
    RLCCD_ASSERT(std::bit_cast<std::uint64_t>(n.load_cap) ==
                 std::bit_cast<std::uint64_t>(fold_load(n)));
  }
}

}  // namespace rlccd
