// Generic standard-cell library with an NLDM-flavoured linear timing model.
//
// Each logical cell kind (INV, NAND2, DFF, ...) is offered in several drive
// strengths. Delay through a cell arc is modeled as
//     delay = delay_scale * (intrinsic + pin_delta[pin] + drive_res * C_load
//                            + slew_sens * slew_in)
// and output transition as
//     slew  = slew_intrinsic + slew_res * C_load.
// Upsizing a cell lowers drive_res (faster under load) at the cost of larger
// input capacitance and leakage — exactly the trade-off the data-path
// optimizer (src/opt) exploits and the RL agent's Table-I features observe.
#pragma once

#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "netlist/tech.h"

namespace rlccd {

enum class CellKind {
  Input,   // primary input port (virtual driver)
  Output,  // primary output port (virtual load)
  Buf,
  Inv,
  Nand2,
  Nor2,
  And2,
  Or2,
  Xor2,
  Aoi21,
  Mux2,
  Dff,
};

const char* cell_kind_name(CellKind kind);
int cell_kind_num_inputs(CellKind kind);

struct LibCell {
  LibCellId id;
  std::string name;
  CellKind kind = CellKind::Buf;
  int num_inputs = 1;
  int size_index = 0;     // 0-based index within kind's size ladder
  double drive = 1.0;     // drive strength multiplier (X1 = 1, X2 = 2, ...)

  // Timing (ns, fF).
  double intrinsic_delay = 0.0;
  double drive_res = 0.0;        // ns per fF of load
  double slew_sens = 0.0;        // ns of delay per ns of input slew
  double slew_intrinsic = 0.0;   // ns
  double slew_res = 0.0;         // ns per fF of load
  double input_cap = 0.0;        // fF per input pin
  // Per-input-pin arc asymmetry (ns); makes commutative-pin swapping a real
  // optimization for the restructuring pass.
  std::vector<double> pin_delta;

  // Sequential-only (kind == Dff).
  double setup_time = 0.0;  // ns
  double hold_time = 0.0;   // ns
  double clk_to_q = 0.0;    // ns (added to intrinsic arc model)

  // Power.
  double leakage = 0.0;          // mW
  double internal_energy = 0.0;  // mW at toggle rate 1.0
  double clock_pin_cap = 0.0;    // fF (Dff only)

  [[nodiscard]] bool is_sequential() const { return kind == CellKind::Dff; }
  [[nodiscard]] bool is_port() const {
    return kind == CellKind::Input || kind == CellKind::Output;
  }

  // Capacitance of input pin `input_pin` (the CK pin of a DFF is pin 1).
  [[nodiscard]] double pin_cap(int input_pin) const {
    return is_sequential() && input_pin == 1 ? clock_pin_cap : input_cap;
  }

  // Arc delay input pin -> output for combinational cells, CK -> Q for DFFs.
  [[nodiscard]] double arc_delay(int input_pin, double load_cap,
                                 double input_slew) const;
  [[nodiscard]] double output_slew(double load_cap) const;
};

class Library {
 public:
  // Builds the full generic library for a technology node.
  static Library make_generic(const Tech& tech);

  [[nodiscard]] const LibCell& cell(LibCellId id) const {
    RLCCD_EXPECTS(id.index() < cells_.size());
    return cells_[id.index()];
  }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] const std::vector<LibCell>& cells() const { return cells_; }
  [[nodiscard]] const Tech& tech() const { return tech_; }

  // All drive sizes of a kind, ordered weakest to strongest.
  [[nodiscard]] const std::vector<LibCellId>& sizes(CellKind kind) const;

  // Canonical variant of `kind` at size ladder position `size_index`
  // (clamped to the available range).
  [[nodiscard]] LibCellId pick(CellKind kind, int size_index) const;

  // Next size up/down in the ladder; returns an invalid id at the end.
  [[nodiscard]] LibCellId upsize(LibCellId id) const;
  [[nodiscard]] LibCellId downsize(LibCellId id) const;

 private:
  LibCellId add(LibCell cell);

  Tech tech_;
  std::vector<LibCell> cells_;
  std::vector<std::vector<LibCellId>> by_kind_;
};

}  // namespace rlccd
