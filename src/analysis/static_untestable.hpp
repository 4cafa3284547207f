// SAT-free static untestability analysis, behind `kmscli analyze` and
// the kmslint rules NL017-NL021. The removal engine does not use it:
// every untestable verdict that licenses a deletion comes from SAT.
//
// A single stuck-at fault is untestable — i.e. the connection is
// redundant in the KMS testing sense — when a *necessary condition* for
// detecting it is structurally unsatisfiable. Three sound (never wrong,
// deliberately incomplete) rules are checked, in order:
//
//   unobservable  The fault site reaches no primary output: no path
//                 exists for the effect, so no test exists.
//   unexcitable   Exciting the fault (driving the site to the complement
//                 of the stuck value) conflicts under the static
//                 implication closure: the site is structurally constant
//                 at the stuck value.
//   blocked       Every path from the site to an output runs through a
//                 post-dominator d. If a side input of d whose source
//                 lies *outside* the fault's fanout cone (so its value
//                 is the same in the good and the faulty circuit) is
//                 forced to d's controlling value whenever the fault is
//                 excited, the effect can never pass d. "direct" mode
//                 reads the forced value straight off the excitation
//                 closure; "indirect" mode seeds *all* such side inputs
//                 with their required noncontrolling values at once and
//                 reports a conflict (each seed is individually
//                 necessary, so a joint conflict is sound).
#pragma once

#include <cstdint>
#include <string_view>

#include "src/analysis/dominators.hpp"
#include "src/analysis/implication.hpp"
#include "src/netlist/network.hpp"

namespace kms::analysis {

enum class StaticVerdict : std::uint8_t {
  kUnknown,       ///< no rule fired; the fault needs the SAT engine
  kUnobservable,
  kUnexcitable,
  kBlocked,
};

std::string_view static_verdict_name(StaticVerdict v);

/// A static untestability verdict.
struct StaticResult {
  StaticVerdict verdict = StaticVerdict::kUnknown;

  bool untestable() const { return verdict != StaticVerdict::kUnknown; }
};

/// Static untestability engine over one network state. Construction
/// builds the post-dominator tree and the implication engine; analysis
/// calls are const and keep their fault-cone marks in per-thread
/// scratch, so one engine may serve concurrent workers.
class StaticUntestable {
 public:
  explicit StaticUntestable(const Network& net);

  /// Analyze the stem fault `g` stuck-at `stuck`.
  StaticResult analyze_stem(GateId g, bool stuck) const;

  /// Analyze the branch fault on connection `c` stuck-at `stuck`.
  StaticResult analyze_branch(ConnId c, bool stuck) const;

  const DominatorTree& dominators() const { return dom_; }
  const ImplicationEngine& implications() const { return imp_; }

 private:
  StaticResult analyze(GateId source, GateId entry, ConnId fault_conn,
                       bool stuck) const;

  const Network& net_;
  DominatorTree dom_;
  ImplicationEngine imp_;
};

}  // namespace kms::analysis
