// Structure-of-arrays timing storage.
//
// The STA data plane keeps one flat array per timing field instead of an
// array of per-pin structs: the full passes sweep the pins level by level
// touching only the fields they need (arrival/slew forward, required
// backward), so each cache line carries nothing but useful data. The layout
// is also the prerequisite for multi-corner analysis (per-corner arrival
// arrays sharing one topology).
//
// Consumers never see the layout: Sta exposes per-field accessors plus a
// materialized PinTiming view for callers that want the whole record.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"

namespace rlccd {

// Materialized per-pin view (the pre-SoA struct, kept as the value type
// returned by Sta::timing()).
struct PinTiming {
  double arrival_max = 0.0;
  double arrival_min = 0.0;
  double slew = 0.0;           // worst (max) transition at the pin
  double required = 0.0;       // setup required time (max analysis)
  bool reachable = false;      // on a timed path from a startpoint
};

class TimingStore {
 public:
  [[nodiscard]] std::size_t size() const { return arrival_max_.size(); }

  // Resets every pin to the default-constructed forward state (required is
  // reseeded by the backward pass).
  void assign(std::size_t n) {
    arrival_max_.assign(n, 0.0);
    arrival_min_.assign(n, 0.0);
    slew_.assign(n, 0.0);
    required_.assign(n, 0.0);
    reachable_.assign(n, 0);
  }

  // Grows to n pins, default-initializing the new tail; existing values
  // are preserved (incremental updates after structural edits).
  void resize(std::size_t n) {
    arrival_max_.resize(n, 0.0);
    arrival_min_.resize(n, 0.0);
    slew_.resize(n, 0.0);
    required_.resize(n, 0.0);
    reachable_.resize(n, 0);
  }

  [[nodiscard]] double& arrival_max(std::size_t i) { return arrival_max_[i]; }
  [[nodiscard]] double arrival_max(std::size_t i) const {
    return arrival_max_[i];
  }
  [[nodiscard]] double& arrival_min(std::size_t i) { return arrival_min_[i]; }
  [[nodiscard]] double arrival_min(std::size_t i) const {
    return arrival_min_[i];
  }
  [[nodiscard]] double& slew(std::size_t i) { return slew_[i]; }
  [[nodiscard]] double slew(std::size_t i) const { return slew_[i]; }
  [[nodiscard]] double& required(std::size_t i) { return required_[i]; }
  [[nodiscard]] double required(std::size_t i) const { return required_[i]; }
  [[nodiscard]] bool reachable(std::size_t i) const {
    return reachable_[i] != 0;
  }
  void set_reachable(std::size_t i, bool r) {
    reachable_[i] = static_cast<std::uint8_t>(r);
  }

  [[nodiscard]] PinTiming get(std::size_t i) const {
    RLCCD_EXPECTS(i < size());
    return {arrival_max_[i], arrival_min_[i], slew_[i], required_[i],
            reachable_[i] != 0};
  }
  void put(std::size_t i, const PinTiming& t) {
    arrival_max_[i] = t.arrival_max;
    arrival_min_[i] = t.arrival_min;
    slew_[i] = t.slew;
    required_[i] = t.required;
    reachable_[i] = static_cast<std::uint8_t>(t.reachable);
  }
  // Stores the forward fields only, preserving the pin's required time.
  void put_forward(std::size_t i, const PinTiming& t) {
    arrival_max_[i] = t.arrival_max;
    arrival_min_[i] = t.arrival_min;
    slew_[i] = t.slew;
    reachable_[i] = static_cast<std::uint8_t>(t.reachable);
  }
  [[nodiscard]] bool forward_equal(std::size_t i, const PinTiming& t) const {
    // Exact comparison: recomputing a pin from unchanged inputs reproduces
    // identical arithmetic, so incremental frontiers die out precisely
    // where timing is genuinely unaffected — no epsilon, no drift.
    return arrival_max_[i] == t.arrival_max &&
           arrival_min_[i] == t.arrival_min && slew_[i] == t.slew &&
           (reachable_[i] != 0) == t.reachable;
  }

  // The required-time array, for the backward pass's bulk reset and seeding.
  [[nodiscard]] std::vector<double>& required_array() { return required_; }

 private:
  std::vector<double> arrival_max_;
  std::vector<double> arrival_min_;
  std::vector<double> slew_;
  std::vector<double> required_;
  std::vector<std::uint8_t> reachable_;
};

// Per-endpoint margins: extra required-time tightening (ns; negative values
// loosen the endpoint). Stored dense by pin index so the backward hot loop
// probes a flat array instead of hashing, plus an active list for
// iteration/clearing (endpoints with a margin are a tiny fraction of pins).
class EndpointMargins {
 public:
  [[nodiscard]] double get(PinId pin) const {
    const std::size_t i = pin.index();
    return i < dense_.size() ? dense_[i] : 0.0;
  }
  // Returns true when the stored margin actually changed.
  bool set(PinId pin, double margin) {
    const std::size_t i = pin.index();
    if (i >= dense_.size()) {
      if (margin == 0.0) return false;
      dense_.resize(i + 1, 0.0);
    }
    const double old = dense_[i];
    if (old == margin) return false;
    if (old == 0.0) {
      active_.push_back(pin);
    } else if (margin == 0.0) {
      for (std::size_t k = 0; k < active_.size(); ++k) {
        if (active_[k] == pin) {
          active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
      }
    }
    dense_[i] = margin;
    return true;
  }
  void clear() {
    for (PinId p : active_) dense_[p.index()] = 0.0;
    active_.clear();
  }
  [[nodiscard]] bool empty() const { return active_.empty(); }
  [[nodiscard]] std::size_t size() const { return active_.size(); }
  // Pins with a non-zero margin, in insertion order.
  [[nodiscard]] const std::vector<PinId>& active() const { return active_; }

 private:
  std::vector<double> dense_;   // by pin index; 0 = no margin
  std::vector<PinId> active_;   // pins with dense_[pin] != 0
};

}  // namespace rlccd
