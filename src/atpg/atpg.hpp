// SAT-based automatic test pattern generation.
//
// Testability of a stuck-at fault is decided exactly with a
// good-circuit / faulty-cone dual encoding (the Boolean-satisfiability
// formulation of ATPG): the fault's output cone is duplicated with the
// fault injected, the good and faulty values of every primary output in
// the cone are XORed, and the query asks for an input assignment that
// activates the fault and makes at least one output differ. UNSAT means
// the fault is untestable — i.e. the circuit is redundant at that site
// (Section I, footnote 1 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/base/governor.hpp"
#include "src/core/context.hpp"
#include "src/core/verdict.hpp"
#include "src/netlist/network.hpp"
#include "src/sat/solver.hpp"

namespace kms {

namespace proof {
class ProofSession;
struct DratCertificate;
}  // namespace proof

struct AtpgStats {
  std::uint64_t queries = 0;
  std::uint64_t testable = 0;
  std::uint64_t untestable = 0;
  /// Queries the governor stopped before a verdict. These faults are
  /// conservatively treated as testable — an aborted query is never
  /// evidence of redundancy.
  std::uint64_t unknown_queries = 0;
  /// Conflicts aggregated across every SAT solve, including aborted
  /// ones (an exhausted budget still did — and reports — its work).
  std::uint64_t sat_conflicts = 0;
  /// Queries that actually reached the SAT solver. queries ==
  /// sat_solves + structural_shortcuts.
  std::uint64_t sat_solves = 0;
  /// Untestable verdicts proved structurally (the fault cone reaches no
  /// primary output), with no solver involved.
  std::uint64_t structural_shortcuts = 0;
  /// Gates encoded into CNF, summed over all SAT solves (good-circuit
  /// support; the measure of the cone-of-influence restriction — the
  /// whole-network encoding would contribute count_gates() per solve).
  std::uint64_t cone_gates_encoded = 0;
  /// Largest single-query support set.
  std::uint64_t max_cone_gates = 0;

  /// Fold `other` into this (used to aggregate per-pass engines).
  void accumulate(const AtpgStats& other);
};

// TestOutcome lives in src/core/verdict.hpp (included above) together
// with the one mapping between the library's three-valued domains.

/// Result of one test-generation query. Converts like the optional it
/// carries ("a test vector exists") so exact-mode callers read
/// naturally; anything that *deletes* hardware must branch on `outcome`
/// and act only on kUntestable.
struct TestResult {
  TestOutcome outcome = TestOutcome::kUnknown;
  std::optional<std::vector<bool>> vector;  ///< set iff kTestable
  /// Certificate id in the proof session backing a kUntestable verdict;
  /// -1 when no session was attached (or the verdict needs no proof).
  std::int64_t proof = -1;
  /// Under proof *capture* (speculative parallel classification), a
  /// kUntestable verdict carries its DRAT certificate here instead of
  /// registering it with a session: whether the verdict is ever
  /// journalled is the coordinator's commit decision, made later and in
  /// canonical order. Null otherwise.
  std::shared_ptr<proof::DratCertificate> certificate;

  bool has_value() const { return vector.has_value(); }
  explicit operator bool() const { return vector.has_value(); }
  std::vector<bool>& operator*() { return *vector; }
  const std::vector<bool>& operator*() const { return *vector; }
};

class Atpg {
 public:
  /// The network must stay structurally unchanged while tests are being
  /// generated (take a fresh Atpg after every network edit). The
  /// context's governor (optional) bounds every SAT solve; exhaustion
  /// yields kUnknown. With the context's proof session attached, every
  /// kUntestable verdict carries a DRAT certificate (the structural-
  /// shortcut path is bypassed so that even faults whose cone misses
  /// every output get one) and verdicts are journalled. The context's
  /// `jobs` field is ignored — one Atpg is always single-threaded;
  /// parallel engines build one per worker.
  Atpg(const Network& net, const RunContext& ctx);

  /// Deprecated raw-pointer form; forwards to the RunContext overload.
  explicit Atpg(const Network& net, ResourceGovernor* governor = nullptr,
                proof::ProofSession* session = nullptr);

  /// Proof-capture mode, for speculative classification by parallel
  /// workers: generate_test records each kUntestable verdict's DRAT
  /// certificate into TestResult::certificate and journals nothing —
  /// the coordinator registers and journals only *committed* verdicts,
  /// in commit order. Mutually exclusive with an attached session (the
  /// session is ignored while capture is on). As under a session, the
  /// structural shortcut is bypassed so every untestable verdict is
  /// certifiable, and a kUnsat with no extractable certificate degrades
  /// to kUnknown rather than licensing an unproved deletion.
  void set_proof_capture(bool on) { capture_ = on; }

  /// Decide testability of the fault: kTestable with a test vector (PI
  /// assignment, in net.inputs() order), kUntestable (the fault site is
  /// redundant), or kUnknown if the governor stopped the solve first.
  TestResult generate_test(const Fault& fault);

  /// True iff a test was found. Note the asymmetry under governance:
  /// false covers both kUntestable and kUnknown — never delete on it.
  bool is_testable(const Fault& fault) {
    return generate_test(fault).outcome == TestOutcome::kTestable;
  }

  const AtpgStats& stats() const { return stats_; }

 private:
  /// Stamp `cone_[g] = stamp_` for the forward closure of the fault
  /// site and collect the primary outputs it reaches.
  void mark_fault_cone(const Fault& fault);
  /// Set `subset_[g]` for the transitive fanin of the stamped cone's
  /// outputs plus `extra_root` — the fanin-closed encoding subset.
  void mark_support(GateId extra_root);

  const Network& net_;
  ResourceGovernor* governor_ = nullptr;
  proof::ProofSession* session_ = nullptr;
  bool capture_ = false;  ///< see set_proof_capture
  AtpgStats stats_;

  // Per-query scratch, hoisted out of generate_test and reset by stamp
  // comparison instead of reallocation: a removal pass issues thousands
  // of queries against the same network and must not churn the
  // allocator. Grown (never shrunk) to gate_capacity() on each query.
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> cone_;  ///< stamp: gate is in the fault cone
  std::vector<bool> subset_;         ///< encoding support, as the mask
  std::vector<sat::Var> faulty_;        ///< faulty-copy var per cone gate
  std::vector<GateId> stack_;           ///< DFS worklist
  std::vector<GateId> cone_outputs_;    ///< primary outputs in the cone
};

/// All *proved* untestable faults from the collapsed fault list.
/// `limit` stops early once that many have been found (0 = no limit).
/// Under a governor, kUnknown verdicts are skipped (conservative).
std::vector<Fault> find_redundancies(const Network& net, std::size_t limit = 0,
                                     ResourceGovernor* governor = nullptr);

/// Count of untestable collapsed faults (the "No. Red." column of
/// Table I).
std::size_t count_redundancies(const Network& net);

}  // namespace kms
