#include "src/atpg/atpg.hpp"

#include <algorithm>
#include <cassert>

#include "src/cnf/encoder.hpp"
#include "src/core/verdict.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/journal.hpp"

namespace kms {

using sat::Lit;
using sat::Solver;
using sat::Var;

void AtpgStats::accumulate(const AtpgStats& other) {
  queries += other.queries;
  testable += other.testable;
  untestable += other.untestable;
  unknown_queries += other.unknown_queries;
  sat_conflicts += other.sat_conflicts;
  sat_solves += other.sat_solves;
  structural_shortcuts += other.structural_shortcuts;
  cone_gates_encoded += other.cone_gates_encoded;
  max_cone_gates = std::max(max_cone_gates, other.max_cone_gates);
}

Atpg::Atpg(const Network& net, const RunContext& ctx)
    : net_(net), governor_(ctx.governor), session_(ctx.session) {}

Atpg::Atpg(const Network& net, ResourceGovernor* governor,
           proof::ProofSession* session)
    : net_(net), governor_(governor), session_(session) {}

void Atpg::mark_fault_cone(const Fault& f) {
  cone_outputs_.clear();
  stack_.clear();
  auto push = [&](GateId g) {
    if (cone_[g.value()] != stamp_) {
      cone_[g.value()] = stamp_;
      stack_.push_back(g);
    }
  };
  if (f.site == Fault::Site::kStem) {
    push(f.gate);
  } else {
    push(net_.conn(f.conn).to);
  }
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (ConnId c : net_.gate(g).fanouts)
      if (!net_.conn(c).dead) push(net_.conn(c).to);
  }
  for (GateId o : net_.outputs())
    if (cone_[o.value()] == stamp_) cone_outputs_.push_back(o);
}

void Atpg::mark_support(GateId extra_root) {
  stack_.clear();
  auto push = [&](GateId g) {
    if (!subset_[g.value()]) {
      subset_[g.value()] = true;
      stack_.push_back(g);
    }
  };
  push(extra_root);
  for (GateId o : cone_outputs_) push(o);
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (ConnId c : net_.gate(g).fanins) push(net_.conn(c).from);
  }
}

TestResult Atpg::generate_test(const Fault& fault) {
  ++stats_.queries;
  const std::uint32_t cap = net_.gate_capacity();
  if (cone_.size() < cap) {
    cone_.resize(cap, 0);
    faulty_.resize(cap, -1);
  }
  subset_.assign(cap, false);
  ++stamp_;
  mark_fault_cone(fault);

  // Untestable without a SAT call if no primary output sees the fault.
  // This is a structural proof, exact under any resource pressure.
  // With a proof session attached the shortcut is bypassed: every
  // untestable verdict must carry a checkable certificate, and the SAT
  // encoding below yields one even here — the detection clause comes out
  // empty, a root-level contradiction any DRAT checker confirms.
  if (cone_outputs_.empty() && !session_ && !capture_) {
    ++stats_.untestable;
    ++stats_.structural_shortcuts;
    return TestResult{TestOutcome::kUntestable, std::nullopt};
  }

  // Cone-of-influence restriction: encode only the transitive fanin of
  // the cone's outputs (plus the fault source, needed for activation)
  // instead of the whole network. The verdict is unchanged — no gate
  // outside that support can influence activation or detection.
  const GateId src_gate = fault_source(net_, fault);
  mark_support(src_gate);

  Solver solver;
  proof::DratTrace trace;
  const bool proving = session_ != nullptr || capture_;
  if (proving) solver.set_proof(&trace);
  if (governor_) solver.set_governor(governor_);
  CircuitEncoding good(net_, solver, subset_);
  ++stats_.sat_solves;
  stats_.cone_gates_encoded += good.encoded_gates();
  stats_.max_cone_gates =
      std::max<std::uint64_t>(stats_.max_cone_gates, good.encoded_gates());

  // A literal fixed to the stuck value, used to inject the fault.
  const Var stuck_var = solver.new_var();
  const Lit stuck_lit = sat::mk_lit(stuck_var, /*negated=*/!fault.stuck);
  solver.add_clause(stuck_lit);

  // Faulty copies for the encoded cone gates. A cone gate outside the
  // support cannot reach any cone output and needs no copy.
  for (GateId g : net_.topo_order()) {
    if (cone_[g.value()] != stamp_ || !subset_[g.value()]) continue;
    const Gate& gt = net_.gate(g);
    const Var fv = solver.new_var();
    faulty_[g.value()] = fv;
    if (fault.site == Fault::Site::kStem && g == fault.gate) {
      // Inject: the faulty stem is the stuck constant.
      solver.add_clause(sat::mk_lit(fv, !fault.stuck));
      continue;
    }
    std::vector<Lit> in;
    in.reserve(gt.fanins.size());
    for (ConnId c : gt.fanins) {
      if (fault.site == Fault::Site::kBranch && c == fault.conn) {
        in.push_back(sat::mk_lit(stuck_var));
        continue;
      }
      const GateId src = net_.conn(c).from;
      const Var sv = cone_[src.value()] == stamp_ ? faulty_[src.value()]
                                                  : good.var_of(src);
      assert(sv >= 0);
      in.push_back(sat::mk_lit(sv));
    }
    encode_gate(solver, gt.kind, fv, in);
  }

  // Activation: the good value at the fault site must differ from the
  // stuck value (otherwise the fault is invisible by construction).
  solver.add_clause(good.lit_of(src_gate, /*negated=*/fault.stuck));

  // Detection: some primary output in the cone differs.
  std::vector<Lit> diffs;
  for (GateId o : cone_outputs_) {
    const Lit g = good.lit_of(o);
    const Lit fl = sat::mk_lit(faulty_[o.value()]);
    const Lit d = sat::mk_lit(solver.new_var());
    solver.add_clause(~d, g, fl);
    solver.add_clause(~d, ~g, ~fl);
    solver.add_clause(d, ~g, fl);
    solver.add_clause(d, g, ~fl);
    diffs.push_back(d);
  }
  solver.add_clause(diffs);

  const sat::Result r = solver.solve();
  // Conflicts of every solve count, aborted ones included: the work was
  // done whether or not it produced a verdict.
  stats_.sat_conflicts += solver.stats().conflicts;
  TestResult res;
  res.outcome = test_outcome_of(r);  // the one sat::Result mapping point
  switch (res.outcome) {
    case TestOutcome::kUntestable: {
      if (!proving) break;
      auto cert = trace.last_unsat_certificate();
      if (!cert) {
        // A kUnsat verdict always certifies; treat its absence as an
        // aborted query rather than license an unproved deletion.
        res.outcome = TestOutcome::kUnknown;
        if (session_ && !capture_)
          session_->journal.add_fault_unknown(format_fault(net_, fault));
        break;
      }
      if (capture_) {
        res.certificate =
            std::make_shared<proof::DratCertificate>(std::move(*cert));
      } else {
        res.proof = session_->add_certificate(std::move(*cert));
        session_->journal.add_fault_untestable(format_fault(net_, fault),
                                               res.proof);
      }
      break;
    }
    case TestOutcome::kUnknown:
      // Resource exhaustion or an injected abort: NOT a redundancy proof.
      if (session_ && !capture_)
        session_->journal.add_fault_unknown(format_fault(net_, fault));
      break;
    case TestOutcome::kTestable:
      res.vector = good.model_inputs();
      break;
  }
  if (res.outcome == TestOutcome::kUntestable) ++stats_.untestable;
  if (res.outcome == TestOutcome::kUnknown) ++stats_.unknown_queries;
  if (res.outcome == TestOutcome::kTestable) ++stats_.testable;
  return res;
}

std::vector<Fault> find_redundancies(const Network& net, std::size_t limit,
                                     ResourceGovernor* governor) {
  std::vector<Fault> out;
  Atpg atpg(net, governor);
  for (const Fault& f : collapsed_faults(net)) {
    // Only a proved kUntestable goes on the list; kUnknown (aborted)
    // faults are kept — deleting one could change the function.
    if (atpg.generate_test(f).outcome == TestOutcome::kUntestable) {
      out.push_back(f);
      if (limit != 0 && out.size() >= limit) break;
    }
  }
  return out;
}

std::size_t count_redundancies(const Network& net) {
  return find_redundancies(net).size();
}

}  // namespace kms
