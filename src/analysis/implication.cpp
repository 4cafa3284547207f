#include "src/analysis/implication.hpp"

#include <cassert>

namespace kms::analysis {
namespace {

/// Per-thread propagation scratch, sized to the largest network seen on
/// the thread. Between calls every `val` entry is -1 and every `queued`
/// entry is 0; a call restores exactly the entries it touched.
struct Scratch {
  std::vector<std::int8_t> val;  ///< -1 unknown, else 0/1
  std::vector<char> queued;
  std::vector<GateId> fifo;
  std::vector<std::int8_t> in;   ///< fanin values of the gate evaluated
  bool busy = false;
};

Scratch& thread_scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

ImplicationEngine::ImplicationEngine(const Network& net)
    : capacity_(net.gate_capacity()) {
  kind_.resize(capacity_);
  fanin_begin_.reserve(capacity_ + 1);
  fanout_begin_.reserve(capacity_ + 1);
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    const Gate& gt = net.gate(GateId{i});
    kind_[i] = gt.kind;
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_src_.size()));
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_dst_.size()));
    if (gt.dead) continue;
    // Constant gates are facts of the circuit; every closure starts
    // from them so it (and its recorded assignment list) is
    // self-contained.
    if (is_constant(gt.kind))
      constants_.emplace_back(GateId{i}, gt.kind == GateKind::kConst1);
    for (ConnId c : gt.fanins) fanin_src_.push_back(net.conn(c).from);
    for (ConnId c : gt.fanouts)
      if (!net.conn(c).dead) fanout_dst_.push_back(net.conn(c).to);
  }
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_src_.size()));
  fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_dst_.size()));
}

/// One call's propagation state: the thread's three-valued assignment
/// plus a FIFO of gates whose local rules may fire again. The destructor
/// hands the scratch back clean.
struct ImplicationEngine::Prop {
  const ImplicationEngine& eng;
  Implications& out;
  Scratch& sc;
  std::size_t head = 0;

  Prop(const ImplicationEngine& e, Implications& o)
      : eng(e), out(o), sc(thread_scratch()) {
    assert(!sc.busy && "propagate() is not reentrant on one thread");
    sc.busy = true;
    if (sc.val.size() < eng.capacity_) {
      sc.val.resize(eng.capacity_, -1);
      sc.queued.resize(eng.capacity_, 0);
    }
  }

  ~Prop() {
    for (const auto& [g, v] : out.assigned) sc.val[g.value()] = -1;
    for (GateId g : sc.fifo) sc.queued[g.value()] = 0;
    sc.fifo.clear();
    sc.busy = false;
  }

  Prop(const Prop&) = delete;
  Prop& operator=(const Prop&) = delete;

  void enqueue(GateId g) {
    if (sc.queued[g.value()]) return;
    sc.fifo.push_back(g);  // first: the reset walks the FIFO
    sc.queued[g.value()] = 1;
  }

  /// Record g = v; returns false on conflict.
  bool assign(GateId g, bool v) {
    std::int8_t& slot = sc.val[g.value()];
    if (slot == static_cast<std::int8_t>(v)) return true;
    if (slot != -1) {
      out.conflict = true;
      out.conflict_gate = g;
      return false;
    }
    out.assigned.emplace_back(g, v);  // first: the reset walks `assigned`
    slot = static_cast<std::int8_t>(v);
    enqueue(g);
    for (std::uint32_t k = eng.fanout_begin_[g.value()];
         k < eng.fanout_begin_[g.value() + 1]; ++k)
      enqueue(eng.fanout_dst_[k]);
    return true;
  }

  /// Close `seeds` (after the constants) under the rules.
  void run(const std::vector<std::pair<GateId, bool>>& seeds) {
    for (const auto& [g, v] : eng.constants_)
      if (!assign(g, v)) return;
    for (const auto& [g, v] : seeds)
      if (!assign(g, v)) return;
    while (head < sc.fifo.size()) {
      const GateId g = sc.fifo[head++];
      sc.queued[g.value()] = 0;
      if (!evaluate(g)) return;
    }
  }

  /// Run the forward and backward rules of one gate. Returns false on
  /// conflict.
  bool evaluate(GateId g) {
    const GateKind k = eng.kind_[g.value()];
    if (k == GateKind::kInput || is_constant(k)) return true;

    // Gather fanin values in pin order.
    const GateId* src = eng.fanin_src_.data() + eng.fanin_begin_[g.value()];
    const std::size_t n =
        eng.fanin_begin_[g.value() + 1] - eng.fanin_begin_[g.value()];
    std::vector<std::int8_t>& in = sc.in;
    in.clear();
    std::size_t known = 0;
    for (std::size_t p = 0; p < n; ++p) {
      const std::int8_t v = sc.val[src[p].value()];
      in.push_back(v);
      if (v != -1) ++known;
    }
    const std::int8_t ov = sc.val[g.value()];
    auto set_out = [&](bool v) { return assign(g, v); };
    auto set_in = [&](std::size_t pin, bool v) { return assign(src[pin], v); };

    if (k == GateKind::kBuf || k == GateKind::kNot ||
        k == GateKind::kOutput) {
      const bool inv = k == GateKind::kNot;
      if (in[0] != -1 && !set_out(static_cast<bool>(in[0]) != inv))
        return false;
      if (ov != -1 && !set_in(0, static_cast<bool>(ov) != inv))
        return false;
      return true;
    }

    if (has_controlling_value(k)) {
      const bool cv = controlling_value(k);
      const bool inv = is_inverting(k);
      bool any_cv = false;
      for (const std::int8_t v : in)
        if (v == static_cast<std::int8_t>(cv)) any_cv = true;
      if (any_cv && !set_out(cv != inv)) return false;
      if (!any_cv && known == in.size() && !set_out(!cv != inv))
        return false;
      if (ov != -1) {
        const bool base = static_cast<bool>(ov) != inv;
        if (base != cv) {
          // Noncontrolled output: every input must be noncontrolling.
          for (std::size_t p = 0; p < in.size(); ++p)
            if (!set_in(p, !cv)) return false;
        } else if (known + 1 == in.size()) {
          // Unit rule: all known inputs noncontrolling, output
          // controlled — the one unknown input carries the controlling
          // value.
          bool all_ncv = true;
          std::size_t open = 0;
          for (std::size_t p = 0; p < in.size(); ++p) {
            if (in[p] == -1) {
              open = p;
            } else if (in[p] == static_cast<std::int8_t>(cv)) {
              all_ncv = false;
            }
          }
          if (all_ncv && !set_in(open, cv)) return false;
        }
      }
      return true;
    }

    if (k == GateKind::kXor || k == GateKind::kXnor) {
      const bool inv = k == GateKind::kXnor;
      bool parity = false;
      for (const std::int8_t v : in) parity ^= (v == 1);
      if (known == in.size()) {
        if (!set_out(parity != inv)) return false;
      } else if (known + 1 == in.size() && ov != -1) {
        // Parity unit rule: the one unknown input is determined.
        std::size_t open = 0;
        for (std::size_t p = 0; p < in.size(); ++p)
          if (in[p] == -1) open = p;
        const bool target = static_cast<bool>(ov) != inv;
        if (!set_in(open, target != parity)) return false;
      }
      return true;
    }

    if (k == GateKind::kMux) {
      // Fanins (s, a, b); out = s ? a : b.
      const std::int8_t s = in[0], a = in[1], b = in[2];
      if (s != -1) {
        const std::size_t sel = s == 1 ? 1 : 2;
        if (in[sel] != -1 && !set_out(in[sel] == 1)) return false;
        if (ov != -1 && !set_in(sel, static_cast<bool>(ov))) return false;
      }
      if (a != -1 && b != -1) {
        if (a == b && !set_out(a == 1)) return false;
        if (a != b && ov != -1 && !set_in(0, ov == a)) return false;
      }
      return true;
    }
    return true;
  }
};

Implications ImplicationEngine::propagate(
    const std::vector<std::pair<GateId, bool>>& seeds) const {
  Implications out;
  {
    Prop p(*this, out);
    p.run(seeds);
  }
  return out;
}

}  // namespace kms::analysis
