// Static implication learning over the three-valued domain {0, 1, X}.
//
// propagate() seeds one or more gates with values and closes the
// assignment under sound local rules, forward and backward:
//   * forward: a controlling input fixes the output; all-known inputs
//     evaluate the gate (any kind); XOR/XNOR close over parity.
//   * backward: a noncontrolled output fixes every input (AND out=1,
//     NOR out=0, ...); the unit rule fires when exactly one input is
//     unknown and the output is known; BUF/NOT/OUTPUT are bidirectional.
// A gate implied to both values is a conflict: the seed assignment is
// unsatisfiable in the good circuit. The rules are sound but incomplete
// — a conflict is always real, the absence of one proves nothing —
// which is exactly the polarity static untestability analysis needs.
//
// One level of recursive (indirect) learning is obtained by seeding two
// literals at once: propagate({a=v, b=w}).conflict establishes the
// learned implication (a=v) => (b=!w).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/netlist/network.hpp"

namespace kms::analysis {

/// Closure of one seed set. `assigned` lists (gate, value) in
/// derivation order, seeds first — deterministic for a fixed network.
struct Implications {
  bool conflict = false;
  GateId conflict_gate = GateId::invalid();  ///< site of the clash, if any
  std::vector<std::pair<GateId, bool>> assigned;

  /// Value lookup against the closure (linear; use the engine's
  /// propagate-into-buffer form for bulk queries).
  bool implies(GateId g, bool v) const {
    for (const auto& [gate, val] : assigned)
      if (gate == g) return val == v;
    return false;
  }
};

/// Cost model: construction is O(network) — it collects the live
/// constant gates and flattens fanins/fanouts once. A propagate() call
/// costs O(closure): it touches only the gates it assigns or queues
/// (plus their fanin/fanout lists) and resets only those afterwards.
class ImplicationEngine {
 public:
  /// The network must stay structurally unchanged while the engine is
  /// in use. The engine itself is immutable after construction and safe
  /// to share between threads: propagate() keeps its three-valued
  /// assignment and work queue in per-thread scratch, restored to clean
  /// before it returns.
  explicit ImplicationEngine(const Network& net);

  Implications propagate(
      const std::vector<std::pair<GateId, bool>>& seeds) const;

 private:
  struct Prop;  ///< one call's propagation state (implication.cpp)

  std::uint32_t capacity_ = 0;  ///< gate capacity of the network
  std::vector<std::pair<GateId, bool>> constants_;  ///< live, id order
  std::vector<GateKind> kind_;                 ///< by gate id
  std::vector<std::uint32_t> fanin_begin_;     ///< CSR by gate id
  std::vector<GateId> fanin_src_;              ///< sources, pin order
  std::vector<std::uint32_t> fanout_begin_;    ///< CSR by gate id
  std::vector<GateId> fanout_dst_;             ///< sinks of live conns
};

}  // namespace kms::analysis
