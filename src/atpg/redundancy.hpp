// ATPG-driven redundancy removal (the conventional procedure, per [22]).
//
// Repeatedly finds an untestable stuck-at fault, asserts the stuck value
// at the fault site (which cannot change the circuit function — that is
// what untestable means), propagates constants, sweeps, and recomputes
// the remaining redundancies, exactly as the paper prescribes: "The
// redundancies are removed one at a time, and the remaining circuit
// redundancies must be recomputed after each removal."
//
// This is both (a) the final phase of the KMS algorithm, run once some
// longest path is sensitizable, and (b) the *naive* baseline whose
// delay behaviour on carry-skip adders motivates the whole paper: run
// on a carry-skip adder directly, it deletes the skip chain and the
// circuit slows down to ripple speed.
//
// Two engines share this entry point:
//  * the seed engine (incremental = false): every pass rebuilds the
//    fault list and re-queries every fault not pre-dropped by random
//    simulation — the literal reading of "recompute after each removal";
//  * the incremental engine (default): three mechanisms avoid SAT
//    queries whose outcome is already known —
//     1. SAT-witness fault dropping: each testable verdict's model is
//        packed into a 64-pattern word (exact witness + 63 random
//        perturbations) and fault-simulated against the whole remaining
//        list, marking other faults testable without solver calls;
//     2. a cross-pass fault-status cache: testable verdicts (from SAT,
//        random simulation, or witness dropping) persist across removal
//        passes keyed by fault identity (GateId/ConnId are stable);
//     3. cone-scoped invalidation: a removal invalidates only cached
//        verdicts whose fault region intersects the edited gates, which
//        TransformTrace records (including severed old edges, so the
//        traversal sees connectivity that the edit itself cut).
//    Every skip is backed by positive evidence of testability, never by
//    an assumption of untestability, so both engines remove the same
//    redundancies in the same (forward) scan order.
//
// With context.jobs > 1 either engine classifies faults on a worker
// pool: per pass, workers speculatively classify faults (each with a
// private Atpg, SAT solver and cone encoding) against the frozen
// network while the coordinator holds all edits; the coordinator then
// commits the *scan-order-first* untestable verdict exactly as the
// sequential scan would have, re-queues every speculative verdict whose
// fault region intersects the committed edit, and recomputes the fault
// list. Because SAT verdicts are exact and skips only ever mark
// genuinely testable faults, the removed-fault set — and therefore the
// final network — is bit-identical to the sequential engine's at any
// worker count. See DESIGN.md §12 for the determinism argument.
#pragma once

#include <cstdint>
#include <string>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault.hpp"
#include "src/base/governor.hpp"
#include "src/core/context.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"

namespace kms {

namespace proof {
class ProofSession;
}  // namespace proof

/// Scan order for the removal loop. The paper: "the remaining
/// redundancies may be removed in any order without increasing the
/// delay of the circuit" — the policies exist to demonstrate exactly
/// that (see bench_removal_order).
enum class RemovalOrder { kForward, kReverse, kRandom };

struct RemovalResume;

struct RedundancyRemovalOptions {
  /// Use random-pattern fault simulation to pre-drop detectable faults
  /// before exact ATPG (big speedup, no effect on the result).
  bool use_fault_sim = true;
  /// Number of 64-pattern words of random stimulus for the pre-drop.
  std::size_t random_words = 8;
  /// Incremental engine: SAT-witness fault dropping plus the cross-pass
  /// testable-fault cache with cone-scoped invalidation. Off = the seed
  /// engine, kept selectable as the baseline for equivalence tests and
  /// the bench_atpg comparison.
  bool incremental = true;
  RemovalOrder order = RemovalOrder::kForward;
  std::uint64_t seed = 0x5EEDull;

  /// Execution context of the run: resource governor (a fault whose
  /// ATPG query it stops is conservatively kept — kUnknown is never a
  /// deletion licence — and the loop stops on exhaustion; the random-
  /// simulation pre-drop honours it word by word), proof session (every
  /// untestable verdict carries a DRAT certificate and every removal is
  /// journalled citing it, in commit order; an aborted run finalizes
  /// the journal as partial), and the worker count:
  /// context.jobs == 1 runs the sequential engines unchanged; > 1 (or 0
  /// = hardware concurrency) runs fault classification on that many
  /// workers with the deterministic commit protocol, whose removed-
  /// fault set is bit-identical to the sequential engine's.
  RunContext context;

  /// Resume a crashed run from a committed pass boundary (the network
  /// must already be replayed to that state; see src/recover/). Null
  /// (the default) starts from scratch.
  const RemovalResume* resume = nullptr;
};

/// Pass-local counters owned by one classification worker. Workers
/// mutate only their own instance — never the shared result — and the
/// coordinator folds each into RedundancyRemovalResult::merge_worker()
/// at the pass barrier: the single stats merge point, so no counter is
/// ever incremented racily in place. The sequential engine routes its
/// per-pass counters through the same path (a one-worker merge).
struct RemovalWorkerStats {
  AtpgStats atpg;
  std::size_t witness_dropped = 0;
  std::size_t sim_dropped = 0;
  std::size_t unknown_queries = 0;
  double sim_seconds = 0.0;
  double sat_seconds = 0.0;
};

struct RedundancyRemovalResult {
  std::size_t removed = 0;  ///< redundant faults asserted constant
  std::size_t passes = 0;   ///< full fault-list scans
  /// Exact ATPG queries that reached the SAT solver. Structural
  /// shortcut verdicts (fault cone reaches no output) are counted in
  /// `structural_shortcuts`, not here — no solve happened.
  std::size_t sat_queries = 0;
  std::size_t structural_shortcuts = 0;  ///< solver-free untestable verdicts
  /// Always 0: every untestable verdict comes from the SAT engine (or
  /// a structural shortcut). Kept so readers of the removal counters
  /// written against the retired static pre-pass still compile.
  std::size_t static_discharged = 0;
  std::size_t unknown_queries = 0;  ///< queries aborted by the governor
  bool aborted = false;  ///< loop stopped early on governor exhaustion

  // Incremental-engine observability (all zero under the seed engine,
  // except sim_dropped which both engines report).
  std::size_t sim_dropped = 0;      ///< pre-dropped by random simulation
  std::size_t witness_dropped = 0;  ///< dropped by SAT-witness replay
  std::size_t cache_hits = 0;       ///< faults skipped via the cross-pass cache
  std::size_t cache_invalidated = 0;  ///< cached verdicts killed by removals
  /// Time in fault simulation / exact ATPG (incl. shortcuts). Under a
  /// parallel run these sum per-worker time and so can exceed the
  /// wall clock — they measure work, not latency.
  double sim_seconds = 0.0;
  double sat_seconds = 0.0;
  /// Aggregate ATPG-engine counters across all passes and workers (cone
  /// sizes, conflicts, solver-call split).
  AtpgStats atpg;

  /// Fold one worker's pass-local counters in. The only place worker
  /// observations reach this struct.
  void merge_worker(const RemovalWorkerStats& w);
};

/// Pass-boundary state of a crashed removal run, as restored by the
/// resume path: the committed counters plus the serialized scan rng and
/// cross-pass fault cache. The engines pick up at the next pass; since
/// every skip the cache licenses is backed by positive testability
/// evidence and the rng stream resumes exactly where it stopped, the
/// continued run removes the identical fault sequence at any job count.
struct RemovalResume {
  RedundancyRemovalResult base;  ///< counters as of the committed pass
  std::string rng_state;         ///< Rng::save_state() at the boundary
  std::string cache_state;       ///< ShardedFaultCache::save_state()
};

/// Remove every single stuck-at redundancy from `net` (in first-found
/// order). On return the network is fully single-stuck-at testable —
/// unless a governor stopped the run early (result.aborted), in which
/// case the network is a correct partial result: every removal so far
/// was individually proved, so function is preserved regardless.
RedundancyRemovalResult remove_redundancies(
    Network& net, const RedundancyRemovalOptions& opts = {});

/// Assert the stuck value at one untestable fault's site. The caller
/// must know the fault is untestable; the function only rewires.
/// `trace`, if non-null, records every modified gate and severed edge
/// (for the incremental engine's cache invalidation).
void apply_redundancy_removal(Network& net, const Fault& fault,
                              TransformTrace* trace = nullptr);

}  // namespace kms
