#include "src/atpg/fault_sim.hpp"

#include <string>

#include <gtest/gtest.h>

#include "src/atpg/atpg.hpp"
#include "src/atpg/inject.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/transform.hpp"
#include "src/sim/simulator.hpp"

namespace kms {
namespace {

/// Oracle mask of `f` under `words`: simulate the good circuit and an
/// injected copy (inject_fault + Simulator share no code with the
/// event-driven kernel) and OR the output differences.
std::uint64_t injected_mask(const Network& net, const Fault& f,
                            const std::vector<std::uint64_t>& words) {
  const Network faulty = inject_fault(net, f);
  Simulator gs(net), fs(faulty);
  gs.run(words);
  fs.run(words);
  std::uint64_t mask = 0;
  for (std::size_t o = 0; o < net.outputs().size(); ++o)
    mask |= gs.output_word(o) ^ fs.output_word(o);
  return mask;
}

/// detect_words must equal the oracle for every fault of `faults` over
/// `rounds` random words (one simulator reused across the rounds).
void expect_matches_injection(const Network& net,
                              const std::vector<Fault>& faults,
                              std::uint64_t seed, int rounds) {
  FaultSimulator sim(net);
  Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::uint64_t> words(net.inputs().size());
    for (auto& w : words) w = rng.next_u64();
    const auto masks = sim.detect_words(faults, words);
    ASSERT_EQ(masks.size(), faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      EXPECT_EQ(masks[i], injected_mask(net, faults[i], words))
          << format_fault(net, faults[i]) << " round " << r;
  }
}

/// Every branch fault on the fanin connections of `g`, both polarities.
std::vector<Fault> fanin_branch_faults(const Network& net, GateId g) {
  std::vector<Fault> faults;
  for (ConnId c : net.gate(g).fanins)
    for (bool v : {false, true})
      faults.push_back(Fault{Fault::Site::kBranch, GateId::invalid(), c, v});
  return faults;
}

TEST(FaultSimTest, AgreesWithInjectionOnRandomNetworks) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 20 + seed % 25;
    opts.max_fanin = 2 + seed % 3;
    Network net = random_network(opts);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_injection(net, enumerate_faults(net), seed * 7 + 1, 3);
  }
}

TEST(FaultSimTest, SourceFeedingOnePinTwiceForcesOnlyTheFaultyPin) {
  // y = a XOR a and z = a AND a: a branch fault on one pin must leave
  // the other pin at the good value (both pins stuck would mask it).
  Network net("twice");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kXor, {a, a});
  const GateId n = net.add_gate(GateKind::kAnd, {a, a, b});
  net.add_output("y", x);
  net.add_output("z", n);
  std::vector<Fault> faults = fanin_branch_faults(net, x);
  for (const Fault& f : fanin_branch_faults(net, n)) faults.push_back(f);
  expect_matches_injection(net, faults, 11, 4);
  // XOR(a, a) with one pin stuck at 1 reads !a: detected wherever a=0.
  FaultSimulator sim(net);
  const std::uint64_t aw = 0x00FF00FF00FF00FFull;
  const auto masks = sim.detect_words(faults, {aw, 0});
  EXPECT_EQ(masks[1], ~aw);  // pin 0 SA1
  EXPECT_EQ(masks[3], ~aw);  // pin 1 SA1
}

TEST(FaultSimTest, MuxSelectAndDataBranches) {
  Network net("mux");
  const GateId s = net.add_input("s");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId m = net.add_gate(GateKind::kMux, {s, a, b});
  const GateId o = net.add_gate(GateKind::kOr, {s, a, b});
  net.add_output("m", m);
  net.add_output("o", o);
  expect_matches_injection(net, fanin_branch_faults(net, m), 12, 4);
  expect_matches_injection(net, enumerate_faults(net), 13, 2);
}

TEST(FaultSimTest, InputStemAndStemDrivingAnOutput) {
  // a feeds two gates (input stem with fanout); g drives output y
  // directly and also feeds h.
  Network net("stems");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId g = net.add_gate(GateKind::kNand, {a, b});
  const GateId h = net.add_gate(GateKind::kNor, {g, a});
  net.add_output("y", g);
  net.add_output("w", h);
  std::vector<Fault> faults;
  for (GateId site : {a, g})
    for (bool v : {false, true})
      faults.push_back(Fault{Fault::Site::kStem, site, ConnId::invalid(), v});
  expect_matches_injection(net, faults, 14, 4);
  FaultSimulator sim(net);
  const std::uint64_t aw = 0xF0F0F0F0F0F0F0F0ull, bw = 0xCCCCCCCCCCCCCCCCull;
  const auto masks = sim.detect_words(faults, {aw, bw});
  // g SA0 is visible at y wherever NAND(a, b) = 1.
  EXPECT_EQ(masks[2] & ~(aw & bw), ~(aw & bw));
}

TEST(FaultSimTest, AgreesWithInjectionAfterSurgery) {
  // Dead gates, non-contiguous ids and constants from set_conn_constant:
  // the flat layout must follow the live structure only.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = 100 + seed;
    opts.gates = 35;
    Network net = random_network(opts);
    Rng pick(seed);
    for (int k = 0; k < 4; ++k) {
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
    ASSERT_EQ(net.check(), "");
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_matches_injection(net, enumerate_faults(net), seed, 2);
  }
}

TEST(FaultSimTest, AgreesWithInjectionSimulation) {
  // For each fault and pattern word, the detection mask must equal the
  // brute-force comparison of good and injected circuits.
  RandomNetworkOptions opts;
  opts.seed = 90;
  opts.gates = 25;
  Network net = random_network(opts);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(4);
  std::vector<std::uint64_t> words(net.inputs().size());
  for (auto& w : words) w = rng.next_u64();
  const auto masks = sim.detect_words(faults, words);
  ASSERT_EQ(masks.size(), faults.size());

  for (std::size_t i = 0; i < faults.size(); ++i) {
    Network faulty = inject_fault(net, faults[i]);
    Simulator gs(net), fs(faulty);
    gs.run(words);
    fs.run(words);
    std::uint64_t expected = 0;
    for (std::size_t o = 0; o < net.outputs().size(); ++o)
      expected |= gs.output_word(o) ^ fs.output_word(o);
    EXPECT_EQ(masks[i], expected) << format_fault(net, faults[i]);
  }
}

TEST(FaultSimTest, DetectsEasyFaultsQuickly) {
  Network net = ripple_carry_adder(4);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(5);
  const auto detected = sim.detect_random(faults, 16, rng);
  std::size_t count = 0;
  for (bool d : detected)
    if (d) ++count;
  // Random patterns detect the overwhelming majority in an adder.
  EXPECT_GT(count, faults.size() * 8 / 10);
}

TEST(FaultSimTest, NeverDetectsRedundantFaults) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  Atpg atpg(net);
  FaultSimulator sim(net);
  Rng rng(6);
  const auto detected = sim.detect_random(faults, 32, rng);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i])
      EXPECT_TRUE(atpg.is_testable(faults[i]))
          << format_fault(net, faults[i]);
  }
}

TEST(FaultSimTest, CoverageOfAtpgTestSetIsComplete) {
  Network net = ripple_carry_adder(3);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  Atpg atpg(net);
  std::vector<std::vector<bool>> tests;
  for (const Fault& f : faults) {
    auto t = atpg.generate_test(f);
    if (t) tests.push_back(std::move(*t));
  }
  EXPECT_DOUBLE_EQ(fault_coverage(net, faults, tests), 1.0);
}

TEST(FaultSimTest, CoverageZeroWithNoTests) {
  Network net = ripple_carry_adder(2);
  const auto faults = collapsed_faults(net);
  EXPECT_DOUBLE_EQ(fault_coverage(net, faults, {}), 0.0);
}

}  // namespace
}  // namespace kms
