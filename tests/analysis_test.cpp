// Static analysis subsystem unit tests: levelized traversal, the
// post-dominator tree, implication learning, SCOAP metrics, fault
// collapsing (and its agreement with the ATPG layer's collapsed list),
// the exact structural snapshot, the NL017-NL021 rules and the
// aggregated report. The soundness property suite for the SAT-free
// untestability verdicts lives in static_untestable_test.cpp.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "src/analysis/collapse.hpp"
#include "src/analysis/dominators.hpp"
#include "src/analysis/implication.hpp"
#include "src/analysis/levels.hpp"
#include "src/analysis/report.hpp"
#include "src/analysis/rules.hpp"
#include "src/analysis/scoap.hpp"
#include "src/analysis/snapshot.hpp"
#include "src/atpg/fault.hpp"
#include "src/base/rng.hpp"
#include "src/check/diagnostics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"

namespace kms {
namespace {

using analysis::DominatorTree;
using analysis::ImplicationEngine;

/// Chain a -> n1 = NOT a -> n2 = NOT n1 -> output y: every gate has a
/// unique path to the single output, so the dominator chain is total.
constexpr const char* kChainBlif =
    ".model chain\n"
    ".inputs a\n"
    ".outputs y\n"
    ".names a n1\n0 1\n"
    ".names n1 y\n0 1\n"
    ".end\n";

/// f = ab + a'c + bc (the consensus circuit): bc is redundant, and the
/// stem of a fans out to reconvergent paths.
constexpr const char* kConsensusBlif =
    ".model consensus\n"
    ".inputs a b c\n"
    ".outputs f\n"
    ".names a b x\n11 1\n"
    ".names a c y\n01 1\n"
    ".names b c z\n11 1\n"
    ".names x y z f\n1-- 1\n-1- 1\n--1 1\n"
    ".end\n";

/// y = a AND (a AND b): the direct a branch into the outer AND is a
/// statically provable (blocked) redundancy.
constexpr const char* kStatredBlif =
    ".model statred\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".names a b x\n11 1\n"
    ".names a x y\n11 1\n"
    ".end\n";

Network load(const char* blif) {
  Network net = read_blif_string(blif);
  decompose_to_simple(net);
  return net;
}

std::vector<Network> property_circuits() {
  std::vector<Network> nets;
  nets.push_back(load(kConsensusBlif));
  nets.push_back(load(kStatredBlif));
  nets.push_back(carry_skip_adder(4, 2));
  nets.push_back(parity_tree(8));
  for (std::uint64_t seed = 400; seed < 406; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 35;
    nets.push_back(random_network(opts));
  }
  for (Network& n : nets) decompose_to_simple(n);
  return nets;
}

bool is_source(const Gate& g) {
  return g.kind == GateKind::kInput || g.kind == GateKind::kConst0 ||
         g.kind == GateKind::kConst1;
}

// ---- levels --------------------------------------------------------------

TEST(AnalysisLevelsTest, SourcesAtZeroAndMonotoneAlongConnections) {
  for (const Network& net : property_circuits()) {
    const auto levels = analysis::gate_levels(net);
    for (const GateId g : net.topo_order()) {
      const Gate& gate = net.gate(g);
      if (is_source(gate)) {
        EXPECT_EQ(levels[g.value()], 0u);
        continue;
      }
      // A logic gate sits strictly above every fanin source; an output
      // marker takes its driver's level.
      for (const ConnId c : gate.fanins) {
        if (net.conn(c).dead) continue;
        const GateId src = net.conn(c).from;
        if (gate.kind == GateKind::kOutput)
          EXPECT_EQ(levels[g.value()], levels[src.value()]);
        else
          EXPECT_GT(levels[g.value()], levels[src.value()]);
      }
    }
  }
}

TEST(AnalysisLevelsTest, LevelizedOrderIsTopologicalAndStable) {
  for (const Network& net : property_circuits()) {
    const auto order = analysis::levelized_order(net);
    const auto levels = analysis::gate_levels(net);
    EXPECT_EQ(order.size(), net.topo_order().size());
    for (std::size_t i = 1; i < order.size(); ++i) {
      const auto a = levels[order[i - 1].value()];
      const auto b = levels[order[i].value()];
      EXPECT_TRUE(a < b || (a == b && order[i - 1].value() < order[i].value()))
          << "order not sorted by (level, id) at position " << i;
    }
  }
}

// ---- dominators ----------------------------------------------------------

TEST(AnalysisDominatorsTest, ChainCircuitHasTotalDominatorChain) {
  const Network net = load(kChainBlif);
  const DominatorTree dom(net);
  // Find the two NOT gates; the one feeding the output dominates the
  // other, and both reach the output.
  GateId first = GateId::invalid(), second = GateId::invalid();
  for (const GateId g : net.topo_order()) {
    if (net.gate(g).kind != GateKind::kNot) continue;
    const GateId src = net.conn(net.gate(g).fanins[0]).from;
    if (net.gate(src).kind == GateKind::kInput)
      first = g;
    else
      second = g;
  }
  ASSERT_TRUE(first.is_valid());
  ASSERT_TRUE(second.is_valid());
  EXPECT_TRUE(dom.reaches_output(first));
  EXPECT_TRUE(dom.dominates(second, first));
  EXPECT_FALSE(dom.dominates(first, second));
  const auto chain = dom.chain(first);
  EXPECT_TRUE(std::find(chain.begin(), chain.end(), second) != chain.end());
}

TEST(AnalysisDominatorsTest, IpdomBlocksEveryPathToAnOutput) {
  // Semantic property on every circuit: a DFS from g that refuses to
  // pass through ipdom(g) must never reach a primary output — that is
  // the definition the blocked rule's soundness rests on.
  for (const Network& net : property_circuits()) {
    const DominatorTree dom(net);
    std::vector<char> is_output(net.gate_capacity(), 0);
    for (const GateId g : net.topo_order())
      if (net.gate(g).kind == GateKind::kOutput) is_output[g.value()] = 1;
    for (const GateId g : net.topo_order()) {
      if (!dom.reaches_output(g)) continue;
      const GateId d = dom.ipdom(g);
      if (!d.is_valid()) continue;  // immediate pdom is the virtual sink
      std::vector<char> seen(net.gate_capacity(), 0);
      std::vector<GateId> stack{g};
      seen[g.value()] = 1;
      bool escaped = false;
      while (!stack.empty() && !escaped) {
        const GateId cur = stack.back();
        stack.pop_back();
        if (cur != g && is_output[cur.value()]) escaped = true;
        for (const ConnId c : net.gate(cur).fanouts) {
          if (net.conn(c).dead) continue;
          const GateId to = net.conn(c).to;
          if (to == d || seen[to.value()]) continue;
          seen[to.value()] = 1;
          stack.push_back(to);
        }
      }
      EXPECT_FALSE(escaped)
          << "ipdom does not block all paths from gate " << g.value();
    }
  }
}

// ---- implications --------------------------------------------------------

TEST(AnalysisImplicationTest, AndGateForwardAndBackwardRules) {
  const Network net = load(kStatredBlif);
  const ImplicationEngine imp(net);
  // Locate a = input "a", the inner AND x and the outer AND y.
  GateId a = GateId::invalid(), inner = GateId::invalid(),
         outer = GateId::invalid();
  for (const GateId g : net.topo_order()) {
    const Gate& gate = net.gate(g);
    if (gate.kind == GateKind::kInput && gate.name == "a") a = g;
    if (gate.kind == GateKind::kAnd) {
      bool feeds_output_marker = false;
      for (const ConnId c : gate.fanouts) {
        if (net.conn(c).dead) continue;
        if (net.gate(net.conn(c).to).kind == GateKind::kOutput)
          feeds_output_marker = true;
      }
      (feeds_output_marker ? outer : inner) = g;
    }
  }
  ASSERT_TRUE(a.is_valid());
  ASSERT_TRUE(inner.is_valid());
  ASSERT_TRUE(outer.is_valid());

  // Backward: outer = 1 forces both fanins, transitively a = b = 1.
  const auto just = imp.propagate({{outer, true}});
  EXPECT_FALSE(just.conflict);
  EXPECT_TRUE(just.implies(inner, true));
  EXPECT_TRUE(just.implies(a, true));

  // Conflict: a = 0 forces inner = 0 and outer = 0; seeding outer = 1
  // on top is unsatisfiable in the good circuit.
  const auto clash = imp.propagate({{a, false}, {outer, true}});
  EXPECT_TRUE(clash.conflict);

  // Forward: a = 0 alone closes to outer = 0 without conflict.
  const auto fwd = imp.propagate({{a, false}});
  EXPECT_FALSE(fwd.conflict);
  EXPECT_TRUE(fwd.implies(inner, false));
  EXPECT_TRUE(fwd.implies(outer, false));
}

TEST(AnalysisImplicationTest, ClosureIsDeterministic) {
  const Network net = load(kConsensusBlif);
  const ImplicationEngine imp(net);
  for (const GateId g : net.topo_order()) {
    for (const bool v : {false, true}) {
      const auto r1 = imp.propagate({{g, v}});
      const auto r2 = imp.propagate({{g, v}});
      EXPECT_EQ(r1.conflict, r2.conflict);
      EXPECT_EQ(r1.assigned, r2.assigned);
    }
  }
}

// Reference closure for the derivation-order contract: the same rules
// in the same FIFO order, written directly over the Network with
// whole-capacity scratch allocated per call and the constants found by
// a full scan. The engine's `assigned` order and `conflict_gate` must
// equal it exactly — static justifications embed conflict= and certify
// journals depend on them.
class ReferenceClosure {
 public:
  ReferenceClosure(const Network& net,
                   const std::vector<std::pair<GateId, bool>>& seeds)
      : net_(net), val_(net.gate_capacity(), -1),
        queued_(net.gate_capacity(), 0) {
    for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
      const Gate& gt = net.gate(GateId{i});
      if (gt.dead || !is_constant(gt.kind)) continue;
      if (!assign(GateId{i}, gt.kind == GateKind::kConst1)) return;
    }
    for (const auto& [g, v] : seeds)
      if (!assign(g, v)) return;
    for (std::size_t head = 0; head < fifo_.size();) {
      const GateId g = fifo_[head++];
      queued_[g.value()] = 0;
      if (!evaluate(g)) return;
    }
  }

  analysis::Implications out;

 private:
  void enqueue(GateId g) {
    if (queued_[g.value()]) return;
    queued_[g.value()] = 1;
    fifo_.push_back(g);
  }

  bool assign(GateId g, bool v) {
    int& slot = val_[g.value()];
    if (slot == static_cast<int>(v)) return true;
    if (slot != -1) {
      out.conflict = true;
      out.conflict_gate = g;
      return false;
    }
    slot = v;
    out.assigned.emplace_back(g, v);
    enqueue(g);
    for (ConnId c : net_.gate(g).fanouts)
      if (!net_.conn(c).dead) enqueue(net_.conn(c).to);
    return true;
  }

  bool evaluate(GateId g) {
    const Gate& gt = net_.gate(g);
    const GateKind k = gt.kind;
    if (k == GateKind::kInput || is_constant(k)) return true;
    std::vector<int> in;
    std::size_t known = 0;
    for (ConnId c : gt.fanins) {
      in.push_back(val_[net_.conn(c).from.value()]);
      if (in.back() != -1) ++known;
    }
    const int ov = val_[g.value()];
    auto set_in = [&](std::size_t pin, bool v) {
      return assign(net_.conn(gt.fanins[pin]).from, v);
    };
    auto open_pin = [&] {
      std::size_t open = 0;
      for (std::size_t p = 0; p < in.size(); ++p)
        if (in[p] == -1) open = p;
      return open;
    };
    if (k == GateKind::kBuf || k == GateKind::kNot ||
        k == GateKind::kOutput) {
      const bool inv = k == GateKind::kNot;
      if (in[0] != -1 && !assign(g, (in[0] == 1) != inv)) return false;
      return ov == -1 || set_in(0, (ov == 1) != inv);
    }
    if (has_controlling_value(k)) {
      const int cv = controlling_value(k);
      const bool inv = is_inverting(k);
      const bool any_cv = std::count(in.begin(), in.end(), cv) > 0;
      if (any_cv && !assign(g, (cv == 1) != inv)) return false;
      if (!any_cv && known == in.size() && !assign(g, (cv == 0) != inv))
        return false;
      if (ov == -1) return true;
      if (static_cast<int>((ov == 1) != inv) != cv) {
        for (std::size_t p = 0; p < in.size(); ++p)
          if (!set_in(p, cv == 0)) return false;
      } else if (known + 1 == in.size() &&
                 std::count(in.begin(), in.end(), cv) == 0) {
        return set_in(open_pin(), cv == 1);
      }
      return true;
    }
    if (k == GateKind::kXor || k == GateKind::kXnor) {
      const bool inv = k == GateKind::kXnor;
      bool parity = false;
      for (int v : in) parity ^= v == 1;
      if (known == in.size()) return assign(g, parity != inv);
      if (known + 1 == in.size() && ov != -1)
        return set_in(open_pin(), ((ov == 1) != inv) != parity);
      return true;
    }
    if (k == GateKind::kMux) {
      const int s = in[0], a = in[1], b = in[2];
      if (s != -1) {
        const std::size_t sel = s == 1 ? 1 : 2;
        if (in[sel] != -1 && !assign(g, in[sel] == 1)) return false;
        if (ov != -1 && !set_in(sel, ov == 1)) return false;
      }
      if (a != -1 && b != -1) {
        if (a == b && !assign(g, a == 1)) return false;
        if (a != b && ov != -1 && !set_in(0, ov == a)) return false;
      }
    }
    return true;
  }

  const Network& net_;
  std::vector<int> val_;
  std::vector<char> queued_;
  std::vector<GateId> fifo_;
};

void expect_same_closure(const analysis::Implications& got,
                         const analysis::Implications& want) {
  EXPECT_EQ(got.conflict, want.conflict);
  EXPECT_EQ(got.conflict_gate, want.conflict_gate);
  EXPECT_EQ(got.assigned, want.assigned);
}

/// A random circuit after surgery: constants from set_conn_constant,
/// then a sweep that leaves dead gates behind.
Network surgered_network(std::uint64_t seed, std::size_t gates) {
  RandomNetworkOptions opts;
  opts.seed = seed;
  opts.gates = gates;
  Network net = random_network(opts);
  Rng pick(seed);
  for (int k = 0; k < 3; ++k) {
    std::vector<ConnId> live;
    for (std::uint32_t i = 0; i < net.conn_capacity(); ++i) {
      const Conn& c = net.conn(ConnId{i});
      if (!c.dead && net.gate(c.to).kind != GateKind::kOutput &&
          !is_constant(net.gate(c.from).kind))
        live.push_back(ConnId{i});
    }
    if (live.empty()) break;
    net.set_conn_constant(live[pick.next_below(live.size())],
                          pick.next_below(2) == 1);
  }
  net.sweep();
  return net;
}

/// Seed sets over the live gates: every single literal, then random
/// pairs and triples (which often conflict and return early).
std::vector<std::vector<std::pair<GateId, bool>>> seed_sets(
    const Network& net, std::uint64_t seed) {
  const std::vector<GateId> live = net.topo_order();
  std::vector<std::vector<std::pair<GateId, bool>>> sets;
  for (GateId g : live)
    for (bool v : {false, true}) sets.push_back({{g, v}});
  Rng rng(seed);
  for (int k = 0; k < 40; ++k) {
    std::vector<std::pair<GateId, bool>> s;
    for (int j = 0; j < 2 + k % 2; ++j)
      s.emplace_back(live[rng.next_below(live.size())],
                     rng.next_below(2) == 1);
    sets.push_back(std::move(s));
  }
  return sets;
}

TEST(AnalysisImplicationTest, DerivationOrderMatchesReference) {
  std::size_t conflicts = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Network net = surgered_network(seed, 30 + seed);
    const ImplicationEngine imp(net);
    for (const auto& seeds : seed_sets(net, seed)) {
      const auto got = imp.propagate(seeds);
      conflicts += got.conflict;
      expect_same_closure(got, ReferenceClosure(net, seeds).out);
    }
  }
  EXPECT_GT(conflicts, 0u) << "no call exercised the early conflict return";
}

TEST(AnalysisImplicationTest, InterleavedCallsEqualAFreshEngine) {
  // A small network, then a larger one, interleaved on one thread with
  // one long-lived engine each: per-thread scratch must come back clean
  // after every call (conflicts included) and grow with the network.
  const Network small = surgered_network(7, 12);
  const Network large = surgered_network(8, 120);
  ASSERT_LT(small.gate_capacity(), large.gate_capacity());
  const auto small_sets = seed_sets(small, 1);
  const auto large_sets = seed_sets(large, 2);

  // Expected closures from fresh engines on a fresh thread (fresh
  // scratch), one engine per call.
  std::vector<analysis::Implications> small_want, large_want;
  std::thread([&] {
    for (const auto& s : small_sets)
      small_want.push_back(ImplicationEngine(small).propagate(s));
    for (const auto& s : large_sets)
      large_want.push_back(ImplicationEngine(large).propagate(s));
  }).join();

  std::thread([&] {
    const ImplicationEngine imp_small(small);
    for (std::size_t i = 0; i < small_sets.size(); ++i)
      expect_same_closure(imp_small.propagate(small_sets[i]), small_want[i]);
    const ImplicationEngine imp_large(large);
    for (std::size_t round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < large_sets.size(); ++i) {
        expect_same_closure(imp_large.propagate(large_sets[i]),
                            large_want[i]);
        const std::size_t j = i % small_sets.size();
        expect_same_closure(imp_small.propagate(small_sets[j]),
                            small_want[j]);
      }
    }
  }).join();
}

// ---- SCOAP ---------------------------------------------------------------

TEST(AnalysisScoapTest, InputsCostOneAndGatesAddDepth) {
  const Network net = load(kStatredBlif);
  const auto m = analysis::compute_scoap(net);
  for (const GateId g : net.topo_order()) {
    const Gate& gate = net.gate(g);
    if (gate.kind == GateKind::kInput) {
      EXPECT_EQ(m.cc0[g.value()], 1u);
      EXPECT_EQ(m.cc1[g.value()], 1u);
      EXPECT_TRUE(m.observable(g));
    }
    if (gate.kind == GateKind::kAnd) {
      // AND output 1 needs every input at 1: one plus the sum of fanin
      // CC1s; output 0 needs only the cheapest fanin at 0.
      std::uint32_t sum1 = 1, min0 = analysis::kScoapInfinity;
      for (const ConnId c : gate.fanins) {
        if (net.conn(c).dead) continue;
        const GateId src = net.conn(c).from;
        sum1 += m.cc1[src.value()];
        min0 = std::min(min0, m.cc0[src.value()]);
      }
      EXPECT_EQ(m.cc1[g.value()], sum1);
      EXPECT_EQ(m.cc0[g.value()], min0 + 1);
    }
  }
}

TEST(AnalysisScoapTest, UnreachableGatesAreUnobservable) {
  for (const Network& net : property_circuits()) {
    const auto m = analysis::compute_scoap(net);
    const DominatorTree dom(net);
    for (const GateId g : net.topo_order()) {
      // Observability through SCOAP and reachability through the
      // dominator machinery must agree on who can never be seen.
      if (!dom.reaches_output(g)) EXPECT_FALSE(m.observable(g));
    }
  }
}

// ---- fault collapsing ----------------------------------------------------

TEST(AnalysisCollapseTest, PartitionAgreesWithAtpgCollapsedList) {
  for (const Network& net : property_circuits()) {
    const analysis::FaultCollapse fc(net);
    const auto full = enumerate_faults(net);
    const auto reps = collapsed_faults(net);
    EXPECT_EQ(fc.total_faults(), full.size());
    EXPECT_EQ(fc.classes().size(), reps.size())
        << "analysis partition and ATPG representative list disagree";
    std::size_t members = 0;
    for (const auto& cls : fc.classes()) {
      EXPECT_FALSE(cls.members.empty());
      members += cls.members.size();
    }
    EXPECT_EQ(members, full.size());
    // Largest-first ordering is part of the contract (NL020 keys on it).
    for (std::size_t i = 1; i < fc.classes().size(); ++i)
      EXPECT_GE(fc.classes()[i - 1].members.size(),
                fc.classes()[i].members.size());
  }
}

TEST(AnalysisCollapseTest, SimpleGateHasDominanceEdges) {
  // A lone AND gate contributes the textbook dominance pairs (output
  // SA1 dominates each input SA1 for AND).
  const Network net = load(kStatredBlif);
  const analysis::FaultCollapse fc(net);
  EXPECT_GT(fc.dominance_edges(), 0u);
}

// ---- snapshot ------------------------------------------------------------

TEST(AnalysisSnapshotTest, RoundTripPreservesGateIdentity) {
  // The contract certificates rest on: gate i of the parsed network IS
  // the snapshot's gate i — same kind, same fanin pins (as snapshot
  // indices, in pin order), same name. Byte-idempotence of a second
  // write is NOT promised (the rebuilt network may serialize in a
  // different valid topological order); identity of coordinates is.
  for (const Network& net : property_circuits()) {
    const std::string s = analysis::write_snapshot(net);
    ASSERT_EQ(analysis::write_snapshot(net), s);  // deterministic bytes
    const Network back = analysis::read_snapshot(s);
    const auto order = analysis::snapshot_order(net);
    ASSERT_EQ(back.topo_order().size(), order.size());
    std::vector<std::uint32_t> index(net.gate_capacity(), 0);
    for (std::size_t i = 0; i < order.size(); ++i)
      index[order[i].value()] = static_cast<std::uint32_t>(i);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Gate& orig = net.gate(order[i]);
      const Gate& copy = back.gate(GateId(static_cast<std::uint32_t>(i)));
      EXPECT_EQ(copy.kind, orig.kind);
      EXPECT_EQ(copy.name, orig.name);
      std::vector<std::uint32_t> want, got;
      for (const ConnId c : orig.fanins) {
        if (net.conn(c).dead) continue;
        want.push_back(index[net.conn(c).from.value()]);
      }
      for (const ConnId c : copy.fanins) {
        if (back.conn(c).dead) continue;
        got.push_back(back.conn(c).from.value());
      }
      EXPECT_EQ(got, want) << "fanin pins differ at snapshot index " << i;
    }
  }
}

TEST(AnalysisSnapshotTest, RejectsMalformedInput) {
  EXPECT_THROW(analysis::read_snapshot("not a snapshot"),
               std::runtime_error);
  EXPECT_THROW(analysis::read_snapshot(""), std::runtime_error);
  // Truncation mid-file must not produce a silently different network.
  const Network net = load(kConsensusBlif);
  const std::string s = analysis::write_snapshot(net);
  EXPECT_THROW(analysis::read_snapshot(s.substr(0, s.size() / 2)),
               std::runtime_error);
}

// ---- rules and report ----------------------------------------------------

TEST(AnalysisRulesTest, BlockedBranchFiresOnStatredOnly) {
  const Network statred = load(kStatredBlif);
  Diagnostics d;
  analysis::run_analysis_rules(statred, &d);
  bool nl019 = false;
  for (const Diagnostic& f : d.all()) {
    EXPECT_EQ(f.severity, Severity::kWarning);
    if (f.rule == "NL019") nl019 = true;
  }
  EXPECT_TRUE(nl019) << "statically redundant branch not reported";

  // An irredundant parity tree triggers none of the untestability rules.
  Network clean = parity_tree(8);
  decompose_to_simple(clean);
  Diagnostics none;
  analysis::run_analysis_rules(clean, &none);
  for (const Diagnostic& f : none.all())
    EXPECT_TRUE(f.rule != "NL017" && f.rule != "NL018" && f.rule != "NL019")
        << f.rule << " fired on an irredundant circuit: " << f.message;
}

TEST(AnalysisRulesTest, RegistryCarriesTheAnalysisRules) {
  for (const char* id : {"NL017", "NL018", "NL019", "NL020", "NL021"}) {
    const RuleInfo* info = find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->severity, Severity::kWarning) << id;
  }
}

TEST(AnalysisReportTest, StatredReportCountsTheBlockedFaults) {
  const Network net = load(kStatredBlif);
  const analysis::AnalysisReport rep = analysis::run_analysis(net);
  EXPECT_GT(rep.gates, 0u);
  EXPECT_GT(rep.fault_sites, 0u);
  EXPECT_GE(rep.blocked, 1u);
  EXPECT_GE(rep.static_untestable(), 1u);
  EXPECT_EQ(rep.total_faults, enumerate_faults(net).size());
  std::ostringstream json, text;
  rep.print_json(json);
  rep.print_text(text);
  EXPECT_NE(json.str().find("\"blocked\""), std::string::npos);
  EXPECT_FALSE(text.str().empty());
}

}  // namespace
}  // namespace kms
