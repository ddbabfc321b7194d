// Gate-level netlist data model.
//
// A Netlist owns cells, nets and pins in flat index-stable vectors (ids are
// never invalidated; optimization passes only add cells/nets, resize cells in
// place, or move sink pins between nets). Ports are modeled as pseudo-cells
// of kind Input/Output so the timing graph is uniform.
//
// Every mutator records the affected cells in a MutationJournal
// (src/netlist/journal.h); the incremental STA consumes the journal to
// re-propagate only the dirty cone instead of the whole design.
//
// Pin conventions:
//   * every cell has at most one output pin (Output ports have none),
//   * DFF input pins are [0] = D, [1] = CK,
//   * a net has exactly one driver pin and any number of sink pins.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "netlist/journal.h"
#include "netlist/library.h"

namespace rlccd {

enum class PinDir : std::uint8_t { Input, Output };

struct Pin {
  PinId id;
  CellId cell;
  NetId net;            // invalid when unconnected
  std::uint16_t index = 0;  // input pin index within the cell (0 for outputs)
  PinDir dir = PinDir::Input;
};

struct Cell {
  CellId id;
  LibCellId lib;
  std::string name;
  double x = 0.0;  // placement (um)
  double y = 0.0;
  std::vector<PinId> inputs;
  PinId output;  // invalid for Output ports
};

// `driver` sits next to `id` so the two 4-byte ids share one 8-byte slot:
// the struct stays 80 bytes with `load_cap` (every flow copies every net).
struct Net {
  NetId id;
  PinId driver;               // invalid until a driver is connected
  std::string name;
  std::vector<PinId> sinks;
  double wire_cap = 0.0;      // fF, refreshed by update_wire_parasitics()
  // fF: wire_cap plus every sink's pin cap, folded left in sink order. The
  // mutators keep it current (see net_load_cap()).
  double load_cap = 0.0;
};

class Netlist {
 public:
  explicit Netlist(const Library* library) : library_(library) {
    RLCCD_EXPECTS(library != nullptr);
  }

  // -- construction ---------------------------------------------------------
  CellId add_cell(LibCellId lib, std::string name);
  NetId add_net(std::string name);
  // Connects `cell`'s output pin as the driver of `net`.
  void set_driver(NetId net, CellId cell);
  // Connects `cell`'s input pin `input_index` as a sink of `net`.
  void add_sink(NetId net, CellId cell, int input_index);
  // Re-targets an already-connected sink pin to another net (buffering,
  // restructuring). The pin keeps its cell and index.
  void move_sink(PinId pin, NetId new_net);
  // Swaps the nets feeding two input pins of the same cell.
  void swap_input_nets(CellId cell, int pin_a, int pin_b);
  // Replaces the cell's library variant (sizing). Pin structure must match.
  void resize_cell(CellId cell, LibCellId new_lib);
  void set_position(CellId cell, double x, double y);

  // -- access ---------------------------------------------------------------
  [[nodiscard]] const Library& library() const { return *library_; }
  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }
  [[nodiscard]] std::size_t num_pins() const { return pins_.size(); }

  [[nodiscard]] const Cell& cell(CellId id) const {
    RLCCD_EXPECTS(id.index() < cells_.size());
    return cells_[id.index()];
  }
  [[nodiscard]] const Net& net(NetId id) const {
    RLCCD_EXPECTS(id.index() < nets_.size());
    return nets_[id.index()];
  }
  [[nodiscard]] const Pin& pin(PinId id) const {
    RLCCD_EXPECTS(id.index() < pins_.size());
    return pins_[id.index()];
  }
  [[nodiscard]] const LibCell& lib_cell(CellId id) const {
    return library_->cell(cell(id).lib);
  }

  [[nodiscard]] std::span<const Cell> cells() const { return cells_; }
  [[nodiscard]] std::span<const Net> nets() const { return nets_; }
  [[nodiscard]] std::span<const Pin> pins() const { return pins_; }

  [[nodiscard]] bool is_sequential(CellId id) const {
    return lib_cell(id).is_sequential();
  }
  [[nodiscard]] bool is_port(CellId id) const { return lib_cell(id).is_port(); }

  // All sequential cells / primary inputs / primary outputs (index order).
  [[nodiscard]] std::vector<CellId> sequential_cells() const;
  [[nodiscard]] std::vector<CellId> primary_inputs() const;
  [[nodiscard]] std::vector<CellId> primary_outputs() const;

  // Count excluding port pseudo-cells (matches the paper's "# cells").
  [[nodiscard]] std::size_t num_real_cells() const;

  // -- derived electrical state ---------------------------------------------
  // Total capacitive load seen by a net's driver: wire cap + sink pin caps,
  // summed left to right from wire_cap in sink order. Kept current by the
  // mutators: an appended sink adds its cap to the stored sum (the same
  // addition the fold would make last); a removed or swapped sink, a resize
  // that changes a sink pin's cap, or a new wire_cap re-folds the net.
  [[nodiscard]] double net_load_cap(NetId id) const { return net(id).load_cap; }
  // Manhattan distance between a net's driver and a given sink pin (um).
  [[nodiscard]] double sink_distance(PinId sink) const;
  // Half-perimeter wirelength of a net's bounding box (um).
  [[nodiscard]] double net_hpwl(NetId id) const;
  // Refreshes wire_cap from placement for every net whose pin set or pin
  // positions changed since the last call (call after placement or topology
  // changes). Nets are visited in ascending id, so the Electrical journal
  // entries, and hence state_hash(), are those a sweep over every net would
  // record: a net whose pins did not change cannot change its wire cap.
  void update_wire_parasitics();

  // -- mutation journal ------------------------------------------------------
  // Record of all timing-relevant edits; consumed by the incremental STA.
  [[nodiscard]] const MutationJournal& journal() const { return journal_; }
  // Zobrist fingerprint of the netlist's mutation history: two netlists
  // built (or copied, then edited) through the same mutation sequence share
  // a hash; any divergence in the sequence changes it. Keys the rollout
  // flow-outcome cache.
  [[nodiscard]] const Hash128& state_hash() const {
    return journal_.state_hash();
  }
  // Discards the journaled backlog (sequence numbers stay monotone). Call
  // once construction is finished so later copies don't drag it along.
  void collapse_journal() { journal_.collapse(); }

  // -- invariant check (tests) ------------------------------------------------
  // Verifies pin/net/cell cross-references and every net's cached load;
  // aborts on corruption.
  void validate() const;

 private:
  PinId add_pin(CellId cell, PinDir dir, std::uint16_t index);
  [[nodiscard]] double sink_cap(PinId sink) const;
  [[nodiscard]] double fold_load(const Net& n) const;
  // Flags a net for the next update_wire_parasitics().
  void mark_wire_stale(NetId net);

  const Library* library_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<Pin> pins_;
  MutationJournal journal_;
  // One bit per net (net i is bit i % 64 of word i / 64): its pin set or a
  // pin's position changed since the last update_wire_parasitics().
  std::vector<std::uint64_t> wire_stale_;
};

}  // namespace rlccd
