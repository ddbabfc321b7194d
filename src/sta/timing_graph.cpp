#include "sta/timing_graph.h"

#include <algorithm>
#include <deque>

namespace rlccd {

void TimingGraph::admit_cell(const Netlist& netlist, const Cell& cell,
                             std::vector<PinId>* new_endpoints) {
  const LibCell& lc = netlist.library().cell(cell.lib);
  is_comb_[cell.id.index()] =
      static_cast<char>(!lc.is_port() && !lc.is_sequential());
  PinId endpoint;
  if (lc.is_sequential()) {
    endpoint = cell.inputs[0];  // D pin
  } else if (lc.kind == CellKind::Output) {
    endpoint = cell.inputs[0];
  }
  if (endpoint.valid() && !is_endpoint(endpoint)) {
    endpoint_flag_[endpoint.index()] = 1;
    endpoints_.push_back(endpoint);
    if (new_endpoints != nullptr) new_endpoints->push_back(endpoint);
  }
}

std::uint32_t TimingGraph::level_from_fanins(const Netlist& netlist,
                                             const Cell& cell) const {
  std::uint32_t lvl = 0;
  for (PinId in : cell.inputs) {
    const Pin& p = netlist.pin(in);
    if (!p.net.valid()) continue;
    const Net& net = netlist.net(p.net);
    if (!net.driver.valid()) continue;
    CellId drv = netlist.pin(net.driver).cell;
    if (is_comb(drv)) lvl = std::max(lvl, level_[drv.index()] + 1);
  }
  return lvl;
}

void TimingGraph::build(const Netlist& netlist) {
  const std::size_t n_cells = netlist.num_cells();
  is_comb_.assign(n_cells, 0);
  level_.assign(n_cells, 0);
  queued_.assign(n_cells, 0);
  endpoints_.clear();
  endpoint_flag_.assign(netlist.num_pins(), 0);
  for (const Cell& c : netlist.cells()) admit_cell(netlist, c, nullptr);

  // Kahn's algorithm over combinational-to-combinational edges; a cell's
  // level is final when it is popped (all fanins already leveled).
  std::vector<std::uint32_t> indeg(n_cells, 0);
  for (const Cell& c : netlist.cells()) {
    if (!is_comb_[c.id.index()]) continue;
    for (PinId in : c.inputs) {
      const Pin& p = netlist.pin(in);
      if (!p.net.valid()) continue;
      const Net& net = netlist.net(p.net);
      if (!net.driver.valid()) continue;
      if (is_comb(netlist.pin(net.driver).cell)) ++indeg[c.id.index()];
    }
  }
  std::deque<CellId> ready;
  for (const Cell& c : netlist.cells()) {
    if (is_comb_[c.id.index()] && indeg[c.id.index()] == 0) {
      ready.push_back(c.id);
    }
  }
  std::size_t popped = 0;
  while (!ready.empty()) {
    CellId id = ready.front();
    ready.pop_front();
    ++popped;
    const Cell& c = netlist.cell(id);
    level_[id.index()] = level_from_fanins(netlist, c);
    if (!c.output.valid()) continue;
    const Pin& out = netlist.pin(c.output);
    if (!out.net.valid()) continue;
    for (PinId sink : netlist.net(out.net).sinks) {
      CellId consumer = netlist.pin(sink).cell;
      if (!is_comb(consumer)) continue;
      if (--indeg[consumer.index()] == 0) ready.push_back(consumer);
    }
  }
  std::size_t comb_total = 0;
  for (char f : is_comb_) comb_total += static_cast<std::size_t>(f);
  // A shortfall means a combinational loop — the generator never produces
  // one, and optimization passes cannot create one.
  RLCCD_ASSERT(popped == comb_total);

  std::sort(endpoints_.begin(), endpoints_.end());
  rebuild_order();
  built_ = true;
}

void TimingGraph::relevel(const Netlist& netlist, std::vector<CellId> seeds) {
  // Every cell flagged here is popped, and unflagged, before the loop ends.
  for (CellId c : seeds) queued_[c.index()] = 1;
  // Fixpoint iteration: on a DAG each cell's level stabilizes after at most
  // depth rounds; the guard only trips on a (structurally impossible)
  // combinational loop.
  std::size_t budget = 64 * netlist.num_cells() + 1024;
  std::size_t head = 0;
  while (head < seeds.size()) {
    RLCCD_ASSERT(budget-- > 0);
    CellId id = seeds[head++];
    queued_[id.index()] = 0;
    if (!is_comb(id)) continue;
    const Cell& c = netlist.cell(id);
    std::uint32_t lvl = level_from_fanins(netlist, c);
    if (lvl == level_[id.index()]) continue;
    level_[id.index()] = lvl;
    if (!c.output.valid()) continue;
    const Pin& out = netlist.pin(c.output);
    if (!out.net.valid()) continue;
    for (PinId sink : netlist.net(out.net).sinks) {
      CellId consumer = netlist.pin(sink).cell;
      if (!is_comb(consumer) || queued_[consumer.index()]) continue;
      queued_[consumer.index()] = 1;
      seeds.push_back(consumer);
    }
  }
}

void TimingGraph::apply_structural(const Netlist& netlist,
                                   std::span<const CellId> touched,
                                   std::vector<PinId>* new_endpoints) {
  RLCCD_EXPECTS(built_);
  const std::size_t first_new = level_.size();
  const std::size_t n_cells = netlist.num_cells();
  std::vector<CellId> seeds(touched.begin(), touched.end());
  if (n_cells > first_new) {
    is_comb_.resize(n_cells, 0);
    level_.resize(n_cells, 0);
    queued_.resize(n_cells, 0);
    endpoint_flag_.resize(netlist.num_pins(), 0);
    const std::size_t known_endpoints = endpoints_.size();
    for (std::size_t i = first_new; i < n_cells; ++i) {
      CellId id(static_cast<std::uint32_t>(i));
      admit_cell(netlist, netlist.cell(id), new_endpoints);
      seeds.push_back(id);
    }
    if (endpoints_.size() != known_endpoints) {
      std::sort(endpoints_.begin(), endpoints_.end());
    }
  }
  if (netlist.num_pins() > endpoint_flag_.size()) {
    endpoint_flag_.resize(netlist.num_pins(), 0);
  }
  relevel(netlist, std::move(seeds));
  order_stale_ = true;
}

std::span<const CellId> TimingGraph::order() {
  if (order_stale_) rebuild_order();
  return order_;
}

void TimingGraph::rebuild_order() {
  std::uint32_t max_level = 0;
  std::size_t comb_total = 0;
  for (std::size_t i = 0; i < level_.size(); ++i) {
    if (!is_comb_[i]) continue;
    ++comb_total;
    max_level = std::max(max_level, level_[i]);
  }
  // Counting sort by level; ids stay ascending within a level.
  std::vector<std::uint32_t> counts(max_level + 2, 0);
  for (std::size_t i = 0; i < level_.size(); ++i) {
    if (is_comb_[i]) ++counts[level_[i] + 1];
  }
  for (std::size_t l = 1; l < counts.size(); ++l) counts[l] += counts[l - 1];
  order_.assign(comb_total, CellId{});
  for (std::size_t i = 0; i < level_.size(); ++i) {
    if (!is_comb_[i]) continue;
    order_[counts[level_[i]]++] = CellId(static_cast<std::uint32_t>(i));
  }
  order_stale_ = false;
}

}  // namespace rlccd
