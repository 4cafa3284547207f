#include "src/atpg/fault_sim.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace kms {
namespace {

constexpr std::uint32_t kNoPos = ~0u;

/// Word of a gate of `kind` whose pin i carries `in(i)`, i < n.
template <class In>
std::uint64_t eval_word(GateKind kind, std::uint32_t n, In in) {
  switch (kind) {
    case GateKind::kConst0:
      return 0;
    case GateKind::kConst1:
      return ~0ull;
    case GateKind::kInput:
      assert(false && "inputs are not re-evaluated");
      return 0;
    case GateKind::kOutput:
    case GateKind::kBuf:
      return in(0);
    case GateKind::kNot:
      return ~in(0);
    case GateKind::kAnd:
    case GateKind::kNand: {
      std::uint64_t w = ~0ull;
      for (std::uint32_t i = 0; i < n; ++i) w &= in(i);
      return kind == GateKind::kNand ? ~w : w;
    }
    case GateKind::kOr:
    case GateKind::kNor: {
      std::uint64_t w = 0;
      for (std::uint32_t i = 0; i < n; ++i) w |= in(i);
      return kind == GateKind::kNor ? ~w : w;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      std::uint64_t w = 0;
      for (std::uint32_t i = 0; i < n; ++i) w ^= in(i);
      return kind == GateKind::kXnor ? ~w : w;
    }
    case GateKind::kMux: {
      const std::uint64_t s = in(0);
      return (s & in(1)) | (~s & in(2));
    }
  }
  return 0;
}

}  // namespace

FaultSimulator::FaultSimulator(const Network& net) : net_(net) {
  const std::vector<GateId> order = net.topo_order();
  const auto n = static_cast<std::uint32_t>(order.size());
  pos_.assign(net.gate_capacity(), kNoPos);
  for (std::uint32_t p = 0; p < n; ++p) pos_[order[p].value()] = p;
  kind_.resize(n);
  is_output_.assign(n, 0);
  fanin_begin_.reserve(n + 1);
  fanout_begin_.reserve(n + 1);
  for (std::uint32_t p = 0; p < n; ++p) {
    const Gate& gt = net.gate(order[p]);
    kind_[p] = gt.kind;
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_src_.size()));
    for (ConnId c : gt.fanins)
      fanin_src_.push_back(pos_[net.conn(c).from.value()]);
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_dst_.size()));
    for (ConnId c : gt.fanouts)
      if (!net.conn(c).dead)
        fanout_dst_.push_back(pos_[net.conn(c).to.value()]);
  }
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_src_.size()));
  fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_dst_.size()));
  for (GateId o : net.outputs()) is_output_[pos_[o.value()]] = 1;
  input_pos_.reserve(net.inputs().size());
  for (GateId i : net.inputs()) input_pos_.push_back(pos_[i.value()]);
  good_.assign(n, 0);
  value_.assign(n, 0);
  queued_.assign(n, 0);
}

std::vector<std::uint64_t> FaultSimulator::detect_words(
    const std::vector<Fault>& faults,
    const std::vector<std::uint64_t>& pi_words) {
  assert(pi_words.size() == input_pos_.size());
  const auto n = static_cast<std::uint32_t>(kind_.size());
  // Good simulation, one pass over the flat order.
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    good_[input_pos_[i]] = pi_words[i];
  for (std::uint32_t p = 0; p < n; ++p) {
    if (kind_[p] == GateKind::kInput) continue;
    const std::uint32_t* src = fanin_src_.data() + fanin_begin_[p];
    good_[p] = eval_word(kind_[p], fanin_begin_[p + 1] - fanin_begin_[p],
                         [&](std::uint32_t i) { return good_[src[i]]; });
  }
  value_ = good_;

  std::vector<std::uint64_t> result;
  result.reserve(faults.size());
  for (const Fault& f : faults) {
    if (++stamp_ == 0) {  // wrapped: no queued_ entry may look current
      std::fill(queued_.begin(), queued_.end(), 0);
      stamp_ = 1;
    }
    std::uint64_t detect = 0;
    // Position p's faulty word becomes w: record it for the output mask
    // and schedule every sink (once per fault).
    auto change = [&](std::uint32_t p, std::uint64_t w) {
      if (is_output_[p]) detect |= w ^ good_[p];
      value_[p] = w;
      touched_.push_back(p);
      for (std::uint32_t k = fanout_begin_[p]; k < fanout_begin_[p + 1]; ++k) {
        const std::uint32_t q = fanout_dst_[k];
        if (queued_[q] == stamp_) continue;
        queued_[q] = stamp_;
        heap_.push_back(q);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    };
    const std::uint64_t stuck_word = f.stuck ? ~0ull : 0;
    if (f.site == Fault::Site::kStem) {
      assert(pos_[f.gate.value()] != kNoPos && "fault on a dead gate");
      change(pos_[f.gate.value()], stuck_word);
    } else {
      // Only the faulty pin of the sink sees the stuck word; a second
      // pin fed by the same source keeps the good value.
      const std::uint32_t sink = pos_[net_.conn(f.conn).to.value()];
      const auto pin = static_cast<std::uint32_t>(net_.pin_of(f.conn));
      const std::uint32_t* src = fanin_src_.data() + fanin_begin_[sink];
      const std::uint64_t w = eval_word(
          kind_[sink], fanin_begin_[sink + 1] - fanin_begin_[sink],
          [&](std::uint32_t i) {
            return i == pin ? stuck_word : value_[src[i]];
          });
      if (w != value_[sink]) change(sink, w);
    }
    // Every scheduled position lies after everything already popped, so
    // each gate is evaluated at most once, after all its changed fanins.
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint32_t p = heap_.back();
      heap_.pop_back();
      const std::uint32_t* src = fanin_src_.data() + fanin_begin_[p];
      const std::uint64_t w =
          eval_word(kind_[p], fanin_begin_[p + 1] - fanin_begin_[p],
                    [&](std::uint32_t i) { return value_[src[i]]; });
      if (w != value_[p]) change(p, w);
    }
    for (std::uint32_t p : touched_) value_[p] = good_[p];
    touched_.clear();
    result.push_back(detect);
  }
  return result;
}

std::vector<bool> FaultSimulator::detect_random(
    const std::vector<Fault>& faults, std::size_t words, Rng& rng,
    ResourceGovernor* governor, std::size_t* words_done) {
  std::vector<bool> detected(faults.size(), false);
  // Fault dropping: a detected fault is not simulated again. Every word
  // is still drawn, so the rng stream does not depend on detections.
  std::vector<Fault> pending = faults;
  std::vector<std::size_t> idx(faults.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<std::uint64_t> pi(net_.inputs().size());
  std::size_t done = 0;
  for (std::size_t w = 0; w < words; ++w) {
    // The deadline the rest of the pipeline honors binds here too: a
    // large word budget must not run past it. Stopping between words
    // yields a partial-but-sound result (fewer pre-dropped faults).
    if (governor && governor->should_stop()) break;
    for (auto& x : pi) x = rng.next_u64();
    const auto masks = detect_words(pending, pi);
    std::size_t kept = 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      if (masks[k] != 0) {
        detected[idx[k]] = true;
      } else {
        pending[kept] = pending[k];
        idx[kept++] = idx[k];
      }
    }
    pending.resize(kept);
    idx.resize(kept);
    ++done;
  }
  if (words_done) *words_done = done;
  return detected;
}

std::vector<std::uint64_t> witness_words(const std::vector<bool>& vector,
                                         Rng& rng) {
  std::vector<std::uint64_t> pi(vector.size());
  for (std::size_t i = 0; i < vector.size(); ++i) {
    const std::uint64_t base = vector[i] ? ~0ull : 0ull;
    // Flip each of patterns 1..63 with probability 1/8 (AND of three
    // uniform words); pattern 0 keeps the exact witness.
    const std::uint64_t flips =
        rng.next_u64() & rng.next_u64() & rng.next_u64() & ~1ull;
    pi[i] = base ^ flips;
  }
  return pi;
}

double fault_coverage(const Network& net, const std::vector<Fault>& faults,
                      const std::vector<std::vector<bool>>& tests) {
  if (faults.empty()) return 1.0;
  FaultSimulator sim(net);
  std::vector<bool> detected(faults.size(), false);
  const std::size_t n = net.inputs().size();
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t in_pass = std::min<std::size_t>(64, tests.size() - base);
    std::vector<std::uint64_t> pi(n, 0);
    for (std::size_t k = 0; k < in_pass; ++k)
      for (std::size_t i = 0; i < n; ++i)
        if (tests[base + k][i]) pi[i] |= 1ull << k;
    const std::uint64_t live =
        in_pass >= 64 ? ~0ull : ((1ull << in_pass) - 1);
    const auto masks = sim.detect_words(faults, pi);
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (masks[i] & live) detected[i] = true;
  }
  std::size_t count = 0;
  for (bool d : detected)
    if (d) ++count;
  return static_cast<double>(count) / static_cast<double>(faults.size());
}

}  // namespace kms
