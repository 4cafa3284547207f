// Incremental ATPG engine tests: SAT/simulation cross-checks, the
// seed-vs-incremental removal equivalence, cache behaviour, governed
// fault simulation, and the solver-call accounting fix.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/base/rng.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/sim/simulator.hpp"

namespace kms {
namespace {

namespace fs = std::filesystem;

std::vector<Network> test_circuits() {
  std::vector<Network> nets;
  nets.push_back(carry_skip_adder(4, 2));
  nets.push_back(carry_skip_adder(8, 2));
  nets.push_back(ripple_carry_adder(4));
  for (std::uint64_t seed = 90; seed < 94; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 30;
    nets.push_back(random_network(opts));
  }
  for (Network& n : nets) decompose_to_simple(n);
  return nets;
}

std::vector<Network> example_circuits() {
  std::vector<Network> nets;
  for (const auto& entry : fs::directory_iterator(EXAMPLES_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    std::ifstream in(entry.path());
    BlifSequential model = read_blif_sequential(in);
    decompose_to_simple(model.comb);
    nets.push_back(std::move(model.comb));
  }
  EXPECT_FALSE(nets.empty());
  return nets;
}

// Every SAT-testable fault's witness must be detected by the fault
// simulator — the exact cross-check the witness-dropping optimization
// rests on (a sim detection and a SAT model must agree on what
// "testable" means, cone encoding included).
TEST(AtpgIncrementalTest, SatWitnessIsDetectedBySimulator) {
  for (const Network& net : test_circuits()) {
    const auto faults = collapsed_faults(net);
    FaultSimulator sim(net);
    Atpg atpg(net);
    Rng rng(7);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const TestResult t = atpg.generate_test(faults[i]);
      if (t.outcome != TestOutcome::kTestable) continue;
      ASSERT_TRUE(t.vector.has_value());
      ASSERT_EQ(t.vector->size(), net.inputs().size());
      // Exact witness in every lane: the fault must be detected.
      std::vector<std::uint64_t> pi(net.inputs().size());
      for (std::size_t k = 0; k < pi.size(); ++k)
        pi[k] = (*t.vector)[k] ? ~0ull : 0ull;
      EXPECT_NE(sim.detect_words(faults, pi)[i], 0u)
          << "witness not detected for fault " << format_fault(net, faults[i]);
      // witness_words keeps the exact witness in pattern 0.
      const auto packed = witness_words(*t.vector, rng);
      EXPECT_NE(sim.detect_words(faults, packed)[i] & 1ull, 0u)
          << "witness_words lane 0 lost the witness for "
          << format_fault(net, faults[i]);
    }
  }
}

// ...and the other direction: every fault the random simulation detects
// must be SAT-testable. A sim detection of an untestable fault would
// mean the simulator and the encoder disagree on the fault semantics.
TEST(AtpgIncrementalTest, SimDetectedFaultIsSatTestable) {
  for (const Network& net : test_circuits()) {
    if (net.inputs().empty()) continue;
    const auto faults = collapsed_faults(net);
    FaultSimulator sim(net);
    Rng rng(11);
    const auto detected = sim.detect_random(faults, 4, rng);
    Atpg atpg(net);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!detected[i]) continue;
      EXPECT_EQ(atpg.generate_test(faults[i]).outcome, TestOutcome::kTestable)
          << "sim-detected but not SAT-testable: "
          << format_fault(net, faults[i]);
    }
  }
}

void expect_engines_agree(const Network& original) {
  Network seed_net = original.clone_compact();
  Network inc_net = original.clone_compact();
  RedundancyRemovalOptions seed_opts;
  seed_opts.incremental = false;
  RedundancyRemovalOptions inc_opts;
  inc_opts.incremental = true;
  const auto seed_r = remove_redundancies(seed_net, seed_opts);
  const auto inc_r = remove_redundancies(inc_net, inc_opts);
  EXPECT_EQ(seed_r.removed, inc_r.removed);
  EXPECT_LE(inc_r.sat_queries, seed_r.sat_queries);
  EXPECT_EQ(seed_net.check(), "");
  EXPECT_EQ(inc_net.check(), "");
  EXPECT_EQ(count_redundancies(inc_net), 0u);
  if (original.inputs().size() <= 16) {
    EXPECT_TRUE(exhaustive_equiv(original, seed_net).equivalent);
    EXPECT_TRUE(exhaustive_equiv(original, inc_net).equivalent);
  } else {
    Rng rng(23);
    EXPECT_TRUE(random_equiv(original, seed_net, rng).equivalent);
    EXPECT_TRUE(random_equiv(original, inc_net, rng).equivalent);
  }
}

TEST(AtpgIncrementalTest, EnginesAgreeOnGeneratedCircuits) {
  for (const Network& net : test_circuits()) expect_engines_agree(net);
}

TEST(AtpgIncrementalTest, EnginesAgreeOnExampleNetlists) {
  for (const Network& net : example_circuits()) expect_engines_agree(net);
}

TEST(AtpgIncrementalTest, IncrementalSavesQueriesOnCarrySkip) {
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  Network seed_net = net.clone_compact();
  Network inc_net = net.clone_compact();
  // Random-sim pre-drop off for both: the comparison measures the
  // exact-ATPG load the incremental machinery (witness dropping +
  // cross-pass cache) is responsible for, as bench_atpg --json does.
  RedundancyRemovalOptions seed_opts;
  seed_opts.incremental = false;
  seed_opts.use_fault_sim = false;
  RedundancyRemovalOptions inc_opts;
  inc_opts.incremental = true;
  inc_opts.use_fault_sim = false;
  const auto seed_r = remove_redundancies(seed_net, seed_opts);
  const auto inc_r = remove_redundancies(inc_net, inc_opts);
  ASSERT_GT(inc_r.removed, 0u);
  EXPECT_EQ(seed_r.removed, inc_r.removed);
  // The carry-skip adder needs several passes; the cross-pass cache and
  // witness dropping must both fire and must strictly reduce the exact
  // ATPG load.
  EXPECT_GT(inc_r.cache_hits, 0u);
  EXPECT_GT(inc_r.witness_dropped, 0u);
  EXPECT_LT(inc_r.sat_queries, seed_r.sat_queries);
  // Seed engine never uses the cache.
  EXPECT_EQ(seed_r.cache_hits, 0u);
  EXPECT_EQ(seed_r.witness_dropped, 0u);
}

TEST(AtpgIncrementalTest, GovernedDetectRandomReportsPartialResult) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(3);
  std::size_t words_done = 123;
  // Ungoverned: all requested words run.
  const auto full = sim.detect_random(faults, 4, rng, nullptr, &words_done);
  EXPECT_EQ(words_done, 4u);
  EXPECT_NE(std::count(full.begin(), full.end(), true), 0);
  // Exhausted governor: the simulation must stop before the first word
  // and report it, returning the (empty) partial detection set.
  ResourceGovernor gov;
  gov.request_interrupt();
  const auto part = sim.detect_random(faults, 4, rng, &gov, &words_done);
  EXPECT_EQ(words_done, 0u);
  EXPECT_EQ(std::count(part.begin(), part.end(), true), 0);
}

TEST(AtpgIncrementalTest, StructuralShortcutAccounting) {
  // A gate that reaches no primary output: untestable without a solver.
  Network net("dangling");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId dangling = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  const GateId o = net.add_gate(GateKind::kOr, {a, b}, 1.0);
  net.add_output("f", o);
  const Fault f{Fault::Site::kStem, dangling, ConnId::invalid(), false};
  {
    Atpg atpg(net);
    EXPECT_EQ(atpg.generate_test(f).outcome, TestOutcome::kUntestable);
    EXPECT_EQ(atpg.stats().queries, 1u);
    EXPECT_EQ(atpg.stats().sat_solves, 0u);
    EXPECT_EQ(atpg.stats().structural_shortcuts, 1u);
  }
  {
    // With a proof session the shortcut is bypassed so the verdict
    // carries a certificate; the accounting must say so.
    proof::ProofSession session;
    Atpg atpg(net, nullptr, &session);
    const TestResult t = atpg.generate_test(f);
    EXPECT_EQ(t.outcome, TestOutcome::kUntestable);
    EXPECT_GE(t.proof, 0);
    EXPECT_EQ(atpg.stats().sat_solves, 1u);
    EXPECT_EQ(atpg.stats().structural_shortcuts, 0u);
  }
  {
    // A testable fault reaches the solver: queries always split into
    // sat_solves + structural_shortcuts.
    Atpg atpg(net);
    const Fault live{Fault::Site::kStem, o, ConnId::invalid(), false};
    EXPECT_EQ(atpg.generate_test(live).outcome, TestOutcome::kTestable);
    EXPECT_EQ(atpg.generate_test(f).outcome, TestOutcome::kUntestable);
    EXPECT_EQ(atpg.stats().queries,
              atpg.stats().sat_solves + atpg.stats().structural_shortcuts);
  }
}

TEST(AtpgIncrementalTest, RemovalResultCountsActualSolves) {
  // The sat_queries accounting fix: the counter must equal the engine's
  // solver-call count, with structural shortcuts reported separately —
  // not the number of loop iterations that reached generate_test.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const auto r = remove_redundancies(net);
  EXPECT_EQ(r.sat_queries, r.atpg.sat_solves);
  EXPECT_EQ(r.structural_shortcuts, r.atpg.structural_shortcuts);
  EXPECT_EQ(r.atpg.queries, r.atpg.sat_solves + r.atpg.structural_shortcuts);
}

TEST(AtpgIncrementalTest, WitnessDropsJournalledAndSessionVerifies) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const std::string input = write_blif_string(net);
  proof::ProofSession session;
  session.journal.set_model(net.name());
  session.journal.set_input_digest(proof::digest_bytes(input));
  RedundancyRemovalOptions opts;
  opts.incremental = true;
  opts.use_fault_sim = false;  // leave the dropping to SAT witnesses
  opts.context.session = &session;
  const auto r = remove_redundancies(net, opts);
  ASSERT_GT(r.removed, 0u);
  const std::string output = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(output));
  // Witness drops happen, but they license nothing and leave no trace
  // in the journal: it holds exactly one untestable verdict and one
  // deletion per removal.
  EXPECT_GT(r.witness_dropped, 0u);
  std::size_t deletes = 0, untestable = 0;
  for (const auto& s : session.journal.steps()) {
    if (s.kind == proof::JournalStep::Kind::kDelete) ++deletes;
    if (s.kind == proof::JournalStep::Kind::kFaultUntestable) ++untestable;
  }
  EXPECT_EQ(deletes, r.removed);
  EXPECT_EQ(untestable, r.removed);
  EXPECT_EQ(session.journal.steps().size(), deletes + untestable);
  EXPECT_FALSE(session.journal.partial());
  // The independent checker verifies every deletion's certificate.
  const proof::VerifyReport rep =
      proof::verify_session(session, input, output);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.deletions_verified, r.removed);
  std::istringstream in(session.journal.to_text());
  const proof::TransformJournal parsed = proof::TransformJournal::read(in);
  EXPECT_EQ(parsed.steps().size(), session.journal.steps().size());
}

TEST(AtpgIncrementalTest, RemovalOrdersStillConvergeIncrementally) {
  // Any scan order must end fully testable and equivalent (the paper's
  // "in any order" claim) — with the cache and witness dropping active.
  for (const RemovalOrder order :
       {RemovalOrder::kForward, RemovalOrder::kReverse,
        RemovalOrder::kRandom}) {
    Network net = carry_skip_adder(4, 2);
    decompose_to_simple(net);
    Network orig = net.clone_compact();
    RedundancyRemovalOptions opts;
    opts.order = order;
    opts.incremental = true;
    remove_redundancies(net, opts);
    EXPECT_EQ(net.check(), "");
    EXPECT_EQ(count_redundancies(net), 0u);
    EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
  }
}

}  // namespace
}  // namespace kms
