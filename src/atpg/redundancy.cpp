#include "src/atpg/redundancy.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_cache.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/base/parallel.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/journal.hpp"

namespace kms {
namespace {

using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;

/// splitmix64, for decorrelating witness-perturbation rng streams from
/// the main scan rng (see witness_rng below).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Witness-perturbation rng for (pass, worker). Deliberately NOT the
/// main scan rng: witness perturbations only ever mark genuinely
/// testable faults, so their draws must not desynchronize the main
/// stream — which the kRandom scan order and the pre-drop stimulus are
/// derived from — between the sequential and parallel engines (or
/// between worker counts). With the streams separated, every engine
/// sees the identical scan order and pre-drop patterns in every pass.
Rng witness_rng(std::uint64_t seed, std::size_t pass, unsigned worker) {
  return Rng(mix64(seed ^ mix64(pass) ^ mix64(0xACEDull + worker)));
}

/// Scan-order permutation for one pass (consumes rng draws only for
/// kRandom — identically in every engine).
std::vector<std::size_t> scan_order(std::size_t n, RemovalOrder order,
                                    Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  if (order == RemovalOrder::kReverse) {
    std::reverse(idx.begin(), idx.end());
  } else if (order == RemovalOrder::kRandom) {
    for (std::size_t i = idx.size(); i > 1; --i)
      std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  return idx;
}

/// Speculative classification states, one per fault of the pass. Only
/// kUndecided entries ever reach a solver.
enum FaultState : std::uint8_t {
  kUndecided = 0,
  kKnownTestable,     ///< cache hit or random-sim pre-drop
  kSatTestable,       ///< this pass's SAT model
  kWitnessTestable,   ///< dropped by replaying another fault's witness
  kProvedUntestable,  ///< exact UNSAT verdict (certificate if proving)
  kUnknownVerdict,    ///< solve stopped by the governor; fault kept
};

/// Mark cache hits and run the random-simulation pre-drop for one pass.
/// Mutates `state` (kUndecided -> kKnownTestable), the cache, and the
/// coordinator-side counters. Shared by both engines; consumes main-rng
/// draws dependent only on (inputs, random_words). `sim` is the pass's
/// simulator over `net`, built here on first use.
void predrop_pass(const Network& net, const std::vector<Fault>& faults,
                  const RedundancyRemovalOptions& opts, ResourceGovernor* gov,
                  ShardedFaultCache& cache, Rng& rng,
                  std::optional<FaultSimulator>& sim,
                  std::vector<std::uint8_t>& state,
                  RedundancyRemovalResult& result) {
  if (opts.incremental) {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (cache.contains(faults[i])) {
        state[i] = kKnownTestable;
        ++result.cache_hits;
      }
    }
  }
  if (!opts.use_fault_sim || faults.empty() || net.inputs().empty()) return;
  const auto t0 = Clock::now();
  if (!sim) sim.emplace(net);
  std::vector<Fault> pending;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (state[i] != kUndecided) continue;
    pending.push_back(faults[i]);
    idx.push_back(i);
  }
  if (!pending.empty()) {
    const std::vector<bool> detected =
        sim->detect_random(pending, opts.random_words, rng, gov);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (!detected[k]) continue;
      state[idx[k]] = kKnownTestable;
      ++result.sim_dropped;
      if (opts.incremental)
        // A simulated detection is a testability witness: cache it.
        cache.insert(pending[k], fault_source(net, pending[k]));
    }
  }
  result.sim_seconds += Seconds(Clock::now() - t0).count();
}

// ---- sequential engines (jobs == 1): seed and incremental ----------------

/// Restore a committed pass-boundary state into the engine-local
/// (result, rng, cache) triple. Shared by both engines; a cleared
/// `aborted` lets the resumed run finish what the crashed one could not.
void apply_resume(const RemovalResume& resume, RedundancyRemovalResult& result,
                  Rng& rng, ShardedFaultCache& cache) {
  result = resume.base;
  result.aborted = false;
  if (!resume.rng_state.empty()) rng.load_state(resume.rng_state);
  cache.load_state(resume.cache_state);
}

/// Announce one committed removal pass to the durability layer. Called
/// only between passes (coordinator thread, no worker running), so the
/// sink may serialize the cache and walk the network freely.
void commit_pass(const RunContext& ctx, const Network& net, const Rng& rng,
                 const ShardedFaultCache& cache,
                 const RedundancyRemovalResult& result) {
  if (ctx.sink == nullptr) return;
  recover::CommitPoint cp;
  cp.net = &net;
  cp.phase = "removal";
  cp.cursor = result.passes;
  cp.rng = &rng;
  cp.cache = &cache;
  cp.removal = &result;
  ctx.sink->commit(cp);
}

RedundancyRemovalResult remove_sequential(Network& net,
                                          const RedundancyRemovalOptions& opts,
                                          const RunContext& ctx) {
  RedundancyRemovalResult result;
  ResourceGovernor* const gov = ctx.governor;
  proof::ProofSession* const session = ctx.session;
  Rng rng(opts.seed);
  ShardedFaultCache cache;  // persists across passes (incremental engine)
  if (opts.resume != nullptr) apply_resume(*opts.resume, result, rng, cache);
  for (;;) {
    if (gov && gov->should_stop()) {
      result.aborted = true;
      break;
    }
    ++result.passes;
    const auto faults = collapsed_faults(net);
    std::vector<std::uint8_t> state(faults.size(), kUndecided);
    // One simulator per pass serves the pre-drop and the witness sweep:
    // the network does not change until the pass commits.
    std::optional<FaultSimulator> sim;
    predrop_pass(net, faults, opts, gov, cache, rng, sim, state, result);
    const std::vector<std::size_t> order =
        scan_order(faults.size(), opts.order, rng);
    Rng wrng = witness_rng(opts.seed, result.passes, 0);
    RemovalWorkerStats ws;
    Atpg atpg(net, ctx);
    bool removed_one = false;
    for (std::size_t i : order) {
      if (state[i] != kUndecided) continue;
      if (gov && gov->should_stop()) {
        result.aborted = true;
        break;
      }
      const auto t0 = Clock::now();
      const TestResult test = atpg.generate_test(faults[i]);
      ws.sat_seconds += Seconds(Clock::now() - t0).count();
      if (test.outcome == TestOutcome::kUnknown) {
        // Aborted query: the fault might be testable; keep it (and
        // never cache it — an abort is not a verdict).
        state[i] = kUnknownVerdict;
        ++ws.unknown_queries;
        continue;
      }
      if (test.outcome == TestOutcome::kTestable) {
        state[i] = kSatTestable;
        if (!opts.incremental) continue;
        cache.insert(faults[i], fault_source(net, faults[i]));
        if (!sim && !net.inputs().empty()) sim.emplace(net);
        if (sim && test.vector) {
          // SAT-witness dropping: replay the model (plus 63 random
          // perturbations of it) against every undecided fault. Any
          // detection is positive proof of testability — those faults
          // never reach the solver. Only the undecided remainder is
          // simulated; it shrinks with every verdict.
          const auto t1 = Clock::now();
          std::vector<Fault> pending;
          std::vector<std::size_t> idx;
          for (std::size_t j = 0; j < faults.size(); ++j) {
            if (state[j] != kUndecided) continue;
            pending.push_back(faults[j]);
            idx.push_back(j);
          }
          if (!pending.empty()) {
            const std::vector<std::uint64_t> pi =
                witness_words(*test.vector, wrng);
            const std::vector<std::uint64_t> masks =
                sim->detect_words(pending, pi);
            for (std::size_t k = 0; k < pending.size(); ++k) {
              if (masks[k] == 0) continue;
              state[idx[k]] = kWitnessTestable;
              ++ws.witness_dropped;
              cache.insert(pending[k], fault_source(net, pending[k]));
            }
          }
          ws.sim_seconds += Seconds(Clock::now() - t1).count();
        }
        continue;
      }
      if (session)
        session->journal.add_delete(format_fault(net, faults[i]), test.proof);
      TransformTrace trace;
      TransformTrace* tr = opts.incremental ? &trace : nullptr;
      apply_redundancy_removal(net, faults[i], tr);
      simplify(net, tr);
      ++result.removed;
      removed_one = true;
      if (opts.incremental)
        result.cache_invalidated += cache.invalidate(net, trace);
      break;  // structure changed: recompute the fault list
    }
    ws.atpg = atpg.stats();
    result.merge_worker(ws);
    if (!removed_one) break;
    // A pass that committed a removal is a resumable unit: the network
    // edit, its journal steps and the cache invalidation are all done.
    // The final no-removal pass needs no commit — nothing changed, and
    // a resumed run simply re-proves the fixpoint.
    if (!result.aborted) commit_pass(ctx, net, rng, cache, result);
  }
  return result;
}

// ---- parallel engine (jobs > 1) ------------------------------------------

/// One worker's speculative output for one fault, written exclusively by
/// the ticket owner; the pool barrier publishes it to the coordinator.
/// `state` is the only cross-worker field (witness droppers CAS it).
struct Speculation {
  std::atomic<std::uint8_t> state{kUndecided};
  TestResult result;  ///< owner-written; meaningful once state is final
};

RedundancyRemovalResult remove_parallel(Network& net,
                                        const RedundancyRemovalOptions& opts,
                                        const RunContext& ctx,
                                        unsigned jobs) {
  RedundancyRemovalResult result;
  ResourceGovernor* const gov = ctx.governor;
  proof::ProofSession* const session = ctx.session;
  Rng rng(opts.seed);
  ShardedFaultCache cache;
  if (opts.resume != nullptr) apply_resume(*opts.resume, result, rng, cache);
  ThreadPool pool(jobs);
  // Per-worker context: same governor (thread-safe), never the session —
  // workers capture certificates; only the coordinator journals.
  RunContext worker_ctx;
  worker_ctx.governor = gov;
  for (;;) {
    if (gov && gov->should_stop()) {
      result.aborted = true;
      break;
    }
    ++result.passes;
    const auto faults = collapsed_faults(net);
    const std::size_t n = faults.size();
    std::vector<std::uint8_t> seed_state(n, kUndecided);
    {
      // The coordinator's simulator serves the pre-drop only: each
      // worker builds its own, since a simulator holds mutable scratch.
      std::optional<FaultSimulator> sim;
      predrop_pass(net, faults, opts, gov, cache, rng, sim, seed_state,
                   result);
    }
    const std::vector<std::size_t> order = scan_order(n, opts.order, rng);
    // Rank of each fault in scan order, for the first-untestable race.
    std::vector<std::size_t> rank(n, n);
    for (std::size_t k = 0; k < n; ++k) rank[order[k]] = k;

    std::vector<Speculation> spec(n);
    for (std::size_t i = 0; i < n; ++i)
      spec[i].state.store(seed_state[i], std::memory_order_relaxed);

    // Lowest scan rank proved untestable so far. Only ever decreases, so
    // a worker may safely skip any ticket ranked above it: that fault
    // can no longer be the pass's first untestable verdict.
    std::atomic<std::size_t> best_rank{n};
    std::atomic<bool> aborted{false};
    TicketQueue tickets(n);
    std::vector<RemovalWorkerStats> wstats(pool.size());

    // Snapshot the pass index for worker rng seeding: workers must not
    // read the coordinator-owned result struct.
    const std::size_t passes_now = result.passes;
    pool.run([&](unsigned w) {
      RemovalWorkerStats& ws = wstats[w];
      Atpg atpg(net, worker_ctx);
      if (session) atpg.set_proof_capture(true);
      Rng wrng = witness_rng(opts.seed, passes_now, w);
      std::optional<FaultSimulator> sim;
      for (;;) {
        const std::size_t k = tickets.next();
        if (k >= n) break;
        if (gov && gov->should_stop()) {
          aborted.store(true, std::memory_order_relaxed);
          break;
        }
        if (k > best_rank.load(std::memory_order_relaxed)) continue;
        const std::size_t i = order[k];
        Speculation& s = spec[i];
        if (s.state.load(std::memory_order_acquire) != kUndecided) continue;
        const auto t0 = Clock::now();
        TestResult test = atpg.generate_test(faults[i]);
        ws.sat_seconds += Seconds(Clock::now() - t0).count();
        if (test.outcome == TestOutcome::kUnknown) {
          ++ws.unknown_queries;
          std::uint8_t expected = kUndecided;
          s.state.compare_exchange_strong(expected, kUnknownVerdict,
                                          std::memory_order_release,
                                          std::memory_order_relaxed);
          continue;
        }
        if (test.outcome == TestOutcome::kUntestable) {
          s.result = std::move(test);
          s.state.store(kProvedUntestable, std::memory_order_release);
          std::size_t cur = best_rank.load(std::memory_order_relaxed);
          while (k < cur && !best_rank.compare_exchange_weak(
                                cur, k, std::memory_order_relaxed))
            ;
          continue;
        }
        // Testable: publish, cache, then sweep the undecided remainder
        // with the witness (worker-local rng and simulator; drops only
        // ever mark genuinely testable faults, so schedule and worker
        // count cannot change which fault commits).
        s.result = std::move(test);
        std::uint8_t expected = kUndecided;
        s.state.compare_exchange_strong(expected, kSatTestable,
                                        std::memory_order_release,
                                        std::memory_order_relaxed);
        if (!opts.incremental) continue;
        cache.insert(faults[i], fault_source(net, faults[i]));
        if (!s.result.vector) continue;
        if (!sim && !net.inputs().empty()) sim.emplace(net);
        if (!sim) continue;
        const auto t1 = Clock::now();
        std::vector<Fault> pending;
        std::vector<std::size_t> idx;
        for (std::size_t j = 0; j < n; ++j) {
          if (spec[j].state.load(std::memory_order_relaxed) != kUndecided)
            continue;
          pending.push_back(faults[j]);
          idx.push_back(j);
        }
        if (!pending.empty()) {
          const std::vector<std::uint64_t> pi =
              witness_words(*s.result.vector, wrng);
          const std::vector<std::uint64_t> masks =
              sim->detect_words(pending, pi);
          for (std::size_t m = 0; m < pending.size(); ++m) {
            if (masks[m] == 0) continue;
            std::uint8_t undecided = kUndecided;
            if (spec[idx[m]].state.compare_exchange_strong(
                    undecided, kWitnessTestable, std::memory_order_release,
                    std::memory_order_relaxed)) {
              ++ws.witness_dropped;
              cache.insert(pending[m], fault_source(net, pending[m]));
            }
          }
        }
        ws.sim_seconds += Seconds(Clock::now() - t1).count();
      }
      ws.atpg = atpg.stats();
    });

    // ---- pass barrier: the single stats merge point ----
    for (std::size_t w = 0; w < wstats.size(); ++w)
      result.merge_worker(wstats[w]);
    if (session) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = order[k];
        if (spec[i].state.load(std::memory_order_relaxed) == kUnknownVerdict)
          session->journal.add_fault_unknown(format_fault(net, faults[i]));
      }
    }
    if (aborted.load(std::memory_order_relaxed) ||
        (gov && gov->should_stop())) {
      // Degraded stop: commit nothing this pass. Every removal already
      // applied was individually proved, so the network is a correct
      // partial result.
      result.aborted = true;
      break;
    }
    const std::size_t best = best_rank.load(std::memory_order_relaxed);
    if (best >= n) break;  // no untestable fault left: fully testable

    // ---- deterministic commit: the scan-order-first untestable fault,
    // exactly the one the sequential scan would have removed ----
    const std::size_t chosen = order[best];
    const Fault& fault = faults[chosen];
    assert(spec[chosen].state.load(std::memory_order_relaxed) ==
           kProvedUntestable);
    if (session) {
      TestResult& tr = spec[chosen].result;
      // Capture mode guarantees a certificate behind every untestable
      // verdict (certificate-less UNSATs degrade to kUnknown).
      assert(tr.certificate != nullptr);
      const std::int64_t id =
          session->add_certificate(std::move(*tr.certificate));
      session->journal.add_fault_untestable(format_fault(net, fault), id);
      session->journal.add_delete(format_fault(net, fault), id);
    }
    TransformTrace trace;
    TransformTrace* tr = opts.incremental ? &trace : nullptr;
    apply_redundancy_removal(net, fault, tr);
    simplify(net, tr);
    ++result.removed;
    if (opts.incremental)
      result.cache_invalidated += cache.invalidate(net, trace);
    // Speculative verdicts beyond `chosen` are re-queued implicitly:
    // testable ones persist only through the cache (which the edit
    // region just invalidated where stale) and untestable ones are
    // discarded entirely — the next pass re-proves any that remain.
    // Commit point: pass barrier passed, removal applied, journal
    // written — and no worker is running, so the sink sees quiescent
    // state (a checkpoint can never land mid-speculation).
    commit_pass(ctx, net, rng, cache, result);
  }
  return result;
}

}  // namespace

void RedundancyRemovalResult::merge_worker(const RemovalWorkerStats& w) {
  atpg.accumulate(w.atpg);
  witness_dropped += w.witness_dropped;
  sim_dropped += w.sim_dropped;
  unknown_queries += w.unknown_queries;
  sim_seconds += w.sim_seconds;
  sat_seconds += w.sat_seconds;
}

void apply_redundancy_removal(Network& net, const Fault& fault,
                              TransformTrace* trace) {
  if (fault.site == Fault::Site::kStem) {
    if (net.gate(fault.gate).kind == GateKind::kInput) {
      // A primary input stays part of the interface; assert the stuck
      // value on its fanout wires instead of replacing the pin.
      auto fanouts = net.gate(fault.gate).fanouts;  // copy: we reroute
      for (ConnId c : fanouts) {
        if (net.conn(c).dead) continue;
        if (trace) {
          trace->note_touch(net.conn(c).to);
          trace->note_severed(fault.gate, net.conn(c).to);
        }
        net.set_conn_constant(c, fault.stuck);
      }
    } else {
      if (trace) {
        trace->note_touch(fault.gate);
        for (ConnId c : net.gate(fault.gate).fanins)
          trace->note_severed(net.conn(c).from, fault.gate);
      }
      net.convert_to_constant(fault.gate, fault.stuck);
    }
  } else {
    if (trace) {
      trace->note_touch(net.conn(fault.conn).to);
      trace->note_severed(net.conn(fault.conn).from, net.conn(fault.conn).to);
    }
    net.set_conn_constant(fault.conn, fault.stuck);
  }
}

RedundancyRemovalResult remove_redundancies(
    Network& net, const RedundancyRemovalOptions& opts) {
  const RunContext ctx = opts.context;
  const unsigned jobs = ctx.effective_jobs();
  RedundancyRemovalResult result =
      jobs > 1 ? remove_parallel(net, opts, ctx, jobs)
               : remove_sequential(net, opts, ctx);
  // The sat_queries accounting fix: count solves the solver actually
  // ran, not loop iterations — structural shortcuts are reported on
  // their own counter.
  result.sat_queries = result.atpg.sat_solves;
  result.structural_shortcuts = result.atpg.structural_shortcuts;
  if (result.aborted && ctx.session)
    ctx.session->journal.mark_partial(
        "redundancy removal stopped early: resource governor exhausted");
  return result;
}

}  // namespace kms
