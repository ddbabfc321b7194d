// Levelized timing-graph topology over a netlist.
//
// Maintains, per cell, a combinational level: 0 for sources (combinational
// cells fed only by flops, ports or unconnected nets) and
// 1 + max(level of combinational fanin drivers) otherwise. Every
// combinational-to-combinational edge strictly increases the level, so
// propagating arrivals in ascending level order (and requireds in
// descending order) visits producers before consumers without needing a
// global topological sort per update.
//
// The structure is maintained *incrementally*: `apply_structural` integrates
// newly added cells and re-levels only the fan-out of journaled structural
// edits via a worklist; it does no whole-design work. The level order only
// the full passes read is rebuilt when `order()` is next called. Endpoints
// (flop D pins, primary-output pins) are tracked here as well.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace rlccd {

class TimingGraph {
 public:
  // Full (re)build from scratch; asserts the combinational graph is acyclic.
  void build(const Netlist& netlist);

  // Incrementally integrates cells added since the last build/apply and
  // re-levels the fan-out cones of `touched` cells. Appends any newly
  // discovered endpoints to `new_endpoints` (when non-null).
  void apply_structural(const Netlist& netlist,
                        std::span<const CellId> touched,
                        std::vector<PinId>* new_endpoints = nullptr);

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] std::size_t num_cells() const { return level_.size(); }

  [[nodiscard]] bool is_comb(CellId cell) const {
    return cell.index() < is_comb_.size() && is_comb_[cell.index()] != 0;
  }
  [[nodiscard]] std::uint32_t level(CellId cell) const {
    RLCCD_EXPECTS(cell.index() < level_.size());
    return level_[cell.index()];
  }

  // Combinational cells in ascending (level, id) order; rebuilds the order
  // first when structural edits have re-leveled cells since the last call.
  [[nodiscard]] std::span<const CellId> order();

  // Timing endpoints (flop D pins, primary-output pins) in pin-index order.
  [[nodiscard]] std::span<const PinId> endpoints() const { return endpoints_; }
  [[nodiscard]] bool is_endpoint(PinId pin) const {
    return pin.index() < endpoint_flag_.size() &&
           endpoint_flag_[pin.index()] != 0;
  }

 private:
  // Recomputes a combinational cell's level from its fanin drivers.
  [[nodiscard]] std::uint32_t level_from_fanins(const Netlist& netlist,
                                                const Cell& cell) const;
  // Worklist relevel from `seeds`; converges on the DAG fixpoint.
  void relevel(const Netlist& netlist, std::vector<CellId> seeds);
  // Regenerates order_ by counting sort over level_.
  void rebuild_order();
  // Classifies one cell, registering its endpoint pin if it has one.
  void admit_cell(const Netlist& netlist, const Cell& cell,
                  std::vector<PinId>* new_endpoints);

  bool built_ = false;
  bool order_stale_ = false;             // apply_structural ran since order_
  std::vector<char> is_comb_;            // indexed by cell
  std::vector<std::uint32_t> level_;     // indexed by cell (0 for non-comb)
  std::vector<char> queued_;             // relevel flags; all 0 between calls
  std::vector<CellId> order_;            // comb cells, ascending level
  std::vector<PinId> endpoints_;         // sorted by pin index
  std::vector<char> endpoint_flag_;      // indexed by pin
};

}  // namespace rlccd
