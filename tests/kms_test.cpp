#include "src/core/kms.hpp"

#include <gtest/gtest.h>

#include "src/atpg/atpg.hpp"
#include "src/base/governor.hpp"
#include "src/check/checker.hpp"
#include "src/cnf/encoder.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/transform.hpp"
#include "src/sim/simulator.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

namespace kms {
namespace {

void expect_kms_contract(Network net, SensitizationMode mode,
                         bool exhaustive = true) {
  decompose_to_simple(net);
  Network original = net;
  // The paper's guarantee is on the viability delay measure: "The
  // proofs still hold for viability analysis of delay estimation, even
  // while using the static sensitization condition" (Section VI).
  const double before_viab =
      computed_delay(net, SensitizationMode::kViability).delay;
  const double before_topo = topological_delay(net);
  KmsOptions opts;
  opts.mode = mode;
  opts.max_iterations = 2000;
  const KmsStats stats = kms_make_irredundant(net, opts);
  ASSERT_EQ(net.check(), "");
  // 1. Function preserved.
  if (exhaustive && net.inputs().size() <= 16) {
    EXPECT_TRUE(exhaustive_equiv(original, net).equivalent);
  } else {
    EXPECT_TRUE(sat_equivalent(original, net));
  }
  // 2. Viability-computed delay did not increase (nor did the
  //    topological bound). Only guaranteed when the loop completed.
  if (!stats.iteration_cap_hit) {
    EXPECT_LE(computed_delay(net, SensitizationMode::kViability).delay,
              before_viab + 1e-9);
  }
  EXPECT_LE(topological_delay(net), before_topo + 1e-9);
  // 3. Fully testable.
  EXPECT_EQ(count_redundancies(net), 0u);
}

TEST(KmsTest, CarrySkip42Static) {
  expect_kms_contract(carry_skip_adder(4, 2), SensitizationMode::kStatic);
}

TEST(KmsTest, CarrySkip42Viability) {
  expect_kms_contract(carry_skip_adder(4, 2), SensitizationMode::kViability);
}

TEST(KmsTest, CarrySkip63Static) {
  expect_kms_contract(carry_skip_adder(6, 3), SensitizationMode::kStatic);
}

TEST(KmsTest, RippleAdderUnchangedDelay) {
  // Already irredundant: the loop should not fire and the final circuit
  // must keep its delay.
  Network net = ripple_carry_adder(4);
  decompose_to_simple(net);
  KmsOptions opts;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_EQ(stats.constants_set, 0u);
  EXPECT_EQ(stats.redundancies_removed, 0u);
  EXPECT_DOUBLE_EQ(stats.final_topo_delay, stats.initial_topo_delay);
}

TEST(KmsTest, UnitDelayCarrySkipFamilyDelaysDropByTwo) {
  // Section VIII: "the delay (using a unit gate delay model) decreases
  // by 2 gate delays in all the carry-skip circuits."
  for (auto [bits, block] : {std::pair<std::size_t, std::size_t>{4, 2},
                             {4, 4},
                             {8, 2},
                             {8, 4}}) {
    Network net = carry_skip_adder(bits, block);
    decompose_to_simple(net);
    apply_unit_delays(net);
    Network original = net;
    const KmsStats stats = kms_make_irredundant(net, {});
    EXPECT_TRUE(sat_equivalent(original, net)) << bits << "." << block;
    EXPECT_EQ(count_redundancies(net), 0u) << bits << "." << block;
    EXPECT_LT(stats.final_topo_delay, stats.initial_topo_delay)
        << bits << "." << block;
  }
}

TEST(KmsTest, DuplicationOccursWhenPathSharesGates) {
  // In multi-block adders the unsensitizable ripple path runs through
  // multi-fanout gates (block carries feed sum XORs), so the algorithm
  // must duplicate.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  apply_unit_delays(net);
  const KmsStats stats = kms_make_irredundant(net, {});
  EXPECT_GT(stats.duplicated_gates, 0u);
}

TEST(KmsTest, MaxFanoutGrowthIsModest) {
  // Section VI.2: "In the 2-b carry-skip adder, after removing
  // redundancies, there is an increase in fan out of at most one for
  // any gate."
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  apply_unit_delays(net);
  const KmsStats stats = kms_make_irredundant(net, {});
  EXPECT_LE(stats.final_max_fanout, stats.initial_max_fanout + 1);
}

TEST(KmsTest, LoopDisabledLeavesRedundancies) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  KmsOptions opts;
  opts.remove_remaining = false;
  kms_make_irredundant(net, opts);
  // The loop only fixes the longest-path redundancies; without the final
  // phase some redundancy may remain — but the circuit must stay correct.
  Network rca = ripple_carry_adder(4);
  decompose_to_simple(rca);
  EXPECT_TRUE(exhaustive_equiv(net, rca).equivalent);
}

TEST(KmsTest, WorksOnRandomRedundantCircuits) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 30;
    opts.inputs = 7;
    opts.allow_xor = false;
    expect_kms_contract(random_network(opts), SensitizationMode::kStatic);
  }
}

// Loop exits. The loop records why it stopped in KmsStats::loop_exit;
// a kUnknown exit must set `degraded` so it is never mistaken for the
// natural kSat exit.

TEST(KmsTest, UnknownExitIsRecordedAndDegraded) {
  // Every solve forced kUnknown: the first path verdict is undecided.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  ResourceGovernor gov;
  gov.set_injector(
      FaultInjector::random(/*seed=*/1, /*abort_probability=*/1.0));
  KmsOptions opts;
  opts.context.governor = &gov;
  opts.remove_remaining = false;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_EQ(stats.loop_exit, "unknown");
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(KmsTest, LoopExitReasonsCoverTheNaturalCases) {
  {
    Network net = carry_skip_adder(4, 2);
    const KmsStats stats = kms_make_irredundant(net);
    EXPECT_TRUE(stats.loop_exit == "sat" || stats.loop_exit == "no-paths")
        << stats.loop_exit;
    EXPECT_FALSE(stats.degraded);
  }
  {
    Network net = carry_skip_adder(4, 2);
    KmsOptions opts;
    opts.max_iterations = 0;
    const KmsStats stats = kms_make_irredundant(net, opts);
    EXPECT_EQ(stats.loop_exit, "iteration-cap");
    EXPECT_TRUE(stats.iteration_cap_hit);
  }
}

TEST(KmsTest, PreTrippedGovernorExitsBeforeTheFirstIteration) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const Network original = net;
  ResourceGovernor gov;
  gov.request_interrupt();
  KmsOptions opts;
  opts.context.governor = &gov;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_EQ(stats.loop_exit, "governor");
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.redundancies_removed, 0u);
  EXPECT_TRUE(stats.degraded);
  EXPECT_TRUE(exhaustive_equiv(original, net).equivalent);
}

TEST(KmsTest, MidLoopTripDegradesConservatively) {
  // The governor cancels twenty queries into the loop: the result is
  // checker-clean, equivalent and flagged degraded. A loop-free run
  // measures the same network twice (initial and final delay columns),
  // so half its queries is what the initial measurement costs.
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  const Network original = net;
  std::uint64_t measure_queries = 0;
  {
    Network probe = net;
    ResourceGovernor counter;
    KmsOptions opts;
    opts.context.governor = &counter;
    opts.max_iterations = 0;
    opts.remove_remaining = false;
    kms_make_irredundant(probe, opts);
    measure_queries = counter.report().queries / 2;
  }
  ResourceGovernor gov;
  gov.set_injector(FaultInjector::random(
      /*seed=*/7, /*abort_probability=*/0.0,
      /*cancel_after_queries=*/measure_queries + 20));
  KmsOptions opts;
  opts.context.governor = &gov;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_TRUE(stats.loop_exit == "unknown" || stats.loop_exit == "governor")
      << stats.loop_exit;
  EXPECT_TRUE(stats.interrupted);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(NetworkChecker().run(net).error_count(), 0u);
  EXPECT_TRUE(sat_equivalent(original, net));
}

}  // namespace
}  // namespace kms
