// Parallel-pattern single-fault simulation.
//
// Simulates 64 input vectors at a time against the good circuit, then
// replays only each fault's output cone with the fault injected. Used to
// cheaply mark detectable faults so that exact (SAT) ATPG effort is spent
// only on the hard survivors — the classic fault-sim-then-ATPG flow of
// redundancy identification tools like [22] (Schulz–Auth).
//
// The kernel is event-driven over a flat, levelized copy of the network
// taken at construction (see DESIGN.md §11, "Fault simulation kernel"):
// a fault's effect is pushed only through gates whose faulty word
// differs from the good one, in topological-position order.
#pragma once

#include <cstdint>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/base/governor.hpp"
#include "src/base/rng.hpp"
#include "src/netlist/network.hpp"

namespace kms {

class FaultSimulator {
 public:
  explicit FaultSimulator(const Network& net);

  /// Simulate one 64-pattern word set and return, for each fault, the
  /// mask of patterns that detect it (bit k set = pattern k detects).
  std::vector<std::uint64_t> detect_words(
      const std::vector<Fault>& faults,
      const std::vector<std::uint64_t>& pi_words);

  /// Convenience: which of `faults` are detected by `words` sets of 64
  /// random patterns each. A fault is dropped from the words after the
  /// one that detects it; the rng draws do not depend on detections. An
  /// optional governor is consulted between
  /// words: on exhaustion the simulation stops early and the partial
  /// detection set is returned (sound — every mark is a real detection;
  /// an unsimulated word can only cost extra exact-ATPG effort later).
  /// `words_done`, if non-null, receives the number of words simulated.
  std::vector<bool> detect_random(const std::vector<Fault>& faults,
                                  std::size_t words, Rng& rng,
                                  ResourceGovernor* governor = nullptr,
                                  std::size_t* words_done = nullptr);

 private:
  const Network& net_;
  // Flat layout, indexed by topological position (inputs and constants
  // first, the order of Network::topo_order()).
  std::vector<GateKind> kind_;
  std::vector<std::uint32_t> fanin_begin_;   ///< CSR offsets, size n+1
  std::vector<std::uint32_t> fanin_src_;     ///< source positions, pin order
  std::vector<std::uint32_t> fanout_begin_;  ///< CSR offsets, size n+1
  std::vector<std::uint32_t> fanout_dst_;    ///< sink positions (live conns)
  std::vector<char> is_output_;
  std::vector<std::uint32_t> pos_;        ///< gate id -> position
  std::vector<std::uint32_t> input_pos_;  ///< inputs()[i] -> position
  // Per-call scratch (this is why one simulator serves one thread).
  std::vector<std::uint64_t> good_;   ///< good-machine word per position
  std::vector<std::uint64_t> value_;  ///< good_ overlaid with one fault
  std::vector<std::uint32_t> touched_;  ///< positions value_ differs at
  std::vector<std::uint32_t> queued_;   ///< event-queue stamp per position
  std::vector<std::uint32_t> heap_;     ///< min-heap of scheduled positions
  std::uint32_t stamp_ = 0;
};

/// Fraction of `faults` detected by the given test set (each entry is a
/// full PI assignment). Used by the test-generation reports.
double fault_coverage(const Network& net, const std::vector<Fault>& faults,
                      const std::vector<std::vector<bool>>& tests);

/// Pack one test vector into a 64-pattern word set for detect_words:
/// pattern 0 is `vector` exactly; patterns 1–63 are random perturbations
/// of it (each input bit flipped with probability ~1/8). Used for
/// SAT-witness fault dropping — the exact witness guarantees its own
/// fault is detected, and the perturbed neighbours cheaply sweep up
/// other faults in the same region of the input space.
std::vector<std::uint64_t> witness_words(const std::vector<bool>& vector,
                                         Rng& rng);

}  // namespace kms
