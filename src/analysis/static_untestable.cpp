#include "src/analysis/static_untestable.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace kms::analysis {
namespace {

/// Per-thread fault-cone scratch, grown to the largest network seen on
/// the thread. Gate g is in the current cone iff stamp[g] == cur, so a
/// new cone costs one increment instead of a capacity-sized clear.
struct ConeScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<GateId> stack;
  std::uint32_t cur = 0;

  bool contains(GateId g) const { return stamp[g.value()] == cur; }
};

/// Mark `entry` and everything reachable from it through live
/// connections. Gates in this set can differ between the good and the
/// faulty circuit; everything outside holds its good value. The marks
/// stay valid until the thread's next call.
const ConeScratch& mark_cone(const Network& net, GateId entry) {
  thread_local ConeScratch s;
  if (s.stamp.size() < net.gate_capacity())
    s.stamp.resize(net.gate_capacity(), 0);
  if (++s.cur == 0) {  // wrapped: no stale stamp may equal the new one
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.cur = 1;
  }
  s.stack.assign(1, entry);
  s.stamp[entry.value()] = s.cur;
  while (!s.stack.empty()) {
    const GateId g = s.stack.back();
    s.stack.pop_back();
    for (ConnId c : net.gate(g).fanouts) {
      if (net.conn(c).dead) continue;
      const GateId to = net.conn(c).to;
      if (s.contains(to)) continue;
      s.stamp[to.value()] = s.cur;
      s.stack.push_back(to);
    }
  }
  return s;
}

/// One side input of a dominator: the dominator and the input's source
/// gate.
struct Side {
  GateId dom;
  GateId source;
};

/// All side inputs of the dominators of a fault whose sources lie
/// outside the fault cone (so their values are fault-independent).
/// Restricted to dominators with a controlling value — only those can
/// block propagation through a forced side input.
std::vector<Side> outside_sides(const Network& net,
                                const std::vector<GateId>& doms,
                                const ConeScratch& cone,
                                ConnId fault_conn) {
  std::vector<Side> sides;
  for (GateId d : doms) {
    if (!has_controlling_value(net.gate(d).kind)) continue;
    for (ConnId c : net.gate(d).fanins) {
      if (net.conn(c).dead || c == fault_conn) continue;
      const GateId s = net.conn(c).from;
      if (!cone.contains(s)) sides.push_back(Side{d, s});
    }
  }
  return sides;
}

}  // namespace

std::string_view static_verdict_name(StaticVerdict v) {
  switch (v) {
    case StaticVerdict::kUnknown:      return "unknown";
    case StaticVerdict::kUnobservable: return "unobservable";
    case StaticVerdict::kUnexcitable:  return "unexcitable";
    case StaticVerdict::kBlocked:      return "blocked";
  }
  return "unknown";
}

StaticUntestable::StaticUntestable(const Network& net)
    : net_(net), dom_(net), imp_(net) {}

StaticResult StaticUntestable::analyze_stem(GateId g, bool stuck) const {
  return analyze(g, g, ConnId::invalid(), stuck);
}

StaticResult StaticUntestable::analyze_branch(ConnId c, bool stuck) const {
  return analyze(net_.conn(c).from, net_.conn(c).to, c, stuck);
}

StaticResult StaticUntestable::analyze(GateId source, GateId entry,
                                       ConnId fault_conn, bool stuck) const {
  StaticResult res;
  // Rule 1: no live path from the fault site to any primary output.
  if (!dom_.reaches_output(entry)) {
    res.verdict = StaticVerdict::kUnobservable;
    return res;
  }

  // Rule 2: the excitation value conflicts — the site is structurally
  // stuck at the fault value already.
  const bool act = !stuck;
  const Implications exc = imp_.propagate({{source, act}});
  if (exc.conflict) {
    res.verdict = StaticVerdict::kUnexcitable;
    return res;
  }

  // Rule 3: a dominator side input outside the fault cone is forced to
  // the dominator's controlling value under excitation.
  std::vector<GateId> doms;
  if (fault_conn.is_valid()) doms.push_back(entry);
  for (GateId d : dom_.chain(entry)) doms.push_back(d);
  if (doms.empty()) return res;

  const std::vector<Side> sides =
      outside_sides(net_, doms, mark_cone(net_, entry), fault_conn);

  for (const Side& s : sides) {
    if (exc.implies(s.source, controlling_value(net_.gate(s.dom).kind))) {
      res.verdict = StaticVerdict::kBlocked;  // direct mode
      return res;
    }
  }

  // Indirect (one level of recursive learning): every outside side
  // input must individually sit at its noncontrolling value in any
  // test, so seeding them all jointly with the excitation is a
  // necessary condition — a conflict proves untestability.
  if (!sides.empty()) {
    std::vector<std::pair<GateId, bool>> seeds{{source, act}};
    for (const Side& s : sides)
      seeds.emplace_back(s.source,
                         noncontrolling_value(net_.gate(s.dom).kind));
    if (imp_.propagate(seeds).conflict) res.verdict = StaticVerdict::kBlocked;
  }
  return res;
}

}  // namespace kms::analysis
