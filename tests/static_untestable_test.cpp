// Soundness suite for the SAT-free static untestability verdicts that
// `kmscli analyze` and the kmslint rules NL017-NL021 report: every
// verdict is confirmed by the exact SAT engine on the example corpus,
// random circuits and the statically-redundant generator — the rules
// must never be wrong — and the analysis is deterministic.
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/static_untestable.hpp"
#include "src/atpg/atpg.hpp"
#include "src/atpg/fault.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"

namespace kms {
namespace {

namespace fs = std::filesystem;

using analysis::StaticResult;
using analysis::StaticUntestable;

/// n blocks of y_i = a_i AND (a_i AND b_i): 2n statically provable
/// (blocked) branch redundancies, nothing else.
Network statred_blocks(std::size_t blocks) {
  std::string blif = ".model statred\n.inputs";
  for (std::size_t i = 0; i < blocks; ++i)
    blif += " a" + std::to_string(i) + " b" + std::to_string(i);
  blif += "\n.outputs";
  for (std::size_t i = 0; i < blocks; ++i) blif += " y" + std::to_string(i);
  blif += "\n";
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::string n = std::to_string(i);
    blif += ".names a" + n + " b" + n + " x" + n + "\n11 1\n";
    blif += ".names a" + n + " x" + n + " y" + n + "\n11 1\n";
  }
  blif += ".end\n";
  Network net = read_blif_string(blif);
  decompose_to_simple(net);
  return net;
}

/// statred blocks plus one consensus cone (f = ab + a'c + bc): mixes
/// statically provable redundancies with one only SAT can prove.
Network mixed_redundancies() {
  Network net = read_blif_string(
      ".model mixed\n"
      ".inputs a b c p q\n"
      ".outputs f y\n"
      ".names a b x\n11 1\n"
      ".names a c u\n01 1\n"
      ".names b c z\n11 1\n"
      ".names x u z f\n1-- 1\n-1- 1\n--1 1\n"
      ".names p q w\n11 1\n"
      ".names p w y\n11 1\n"
      ".end\n");
  decompose_to_simple(net);
  return net;
}

StaticResult analyze(const StaticUntestable& engine, const Fault& f) {
  return f.site == Fault::Site::kStem ? engine.analyze_stem(f.gate, f.stuck)
                                      : engine.analyze_branch(f.conn, f.stuck);
}

/// The core soundness check: every static verdict on `net` must agree
/// with the exact SAT engine. Returns the number of faults the static
/// engine calls untestable.
std::size_t check_soundness(const Network& net, const std::string& label) {
  const StaticUntestable engine(net);
  Atpg exact(net);  // no governor: verdicts are exact
  std::size_t hits = 0;
  for (const Fault& f : collapsed_faults(net)) {
    const StaticResult r = analyze(engine, f);
    if (!r.untestable()) continue;
    ++hits;
    EXPECT_EQ(exact.generate_test(f).outcome, TestOutcome::kUntestable)
        << label << ": static engine wrongly called "
        << format_fault(net, f) << " untestable ("
        << analysis::static_verdict_name(r.verdict) << ")";
  }
  return hits;
}

TEST(StaticUntestableTest, VerdictsMatchExactSatOnExampleCorpus) {
  std::size_t total = 0;
  for (const auto& entry : fs::directory_iterator(EXAMPLES_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    std::ifstream in(entry.path());
    BlifSequential model = read_blif_sequential(in);
    decompose_to_simple(model.comb);
    total += check_soundness(model.comb, entry.path().filename().string());
  }
  // Acceptance: the static engine proves at least one untestable fault
  // SAT-free on the shipped example corpus.
  EXPECT_GE(total, 1u);
}

TEST(StaticUntestableTest, VerdictsMatchExactSatOnGeneratedCircuits) {
  std::size_t total = 0;
  total += check_soundness(statred_blocks(4), "statred_4");
  total += check_soundness(mixed_redundancies(), "mixed");
  {
    Network csa = carry_skip_adder(4, 2);
    decompose_to_simple(csa);
    total += check_soundness(csa, "csa_4_2");
  }
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 40;
    Network net = random_network(opts);
    decompose_to_simple(net);
    total += check_soundness(net, "random_" + std::to_string(seed));
  }
  EXPECT_GE(total, 8u);  // each statred block contributes two
}

TEST(StaticUntestableTest, AnalysisIsDeterministic) {
  const Network net = mixed_redundancies();
  const StaticUntestable a(net), b(net);
  for (const Fault& f : collapsed_faults(net)) {
    const StaticResult ra = analyze(a, f), rb = analyze(b, f);
    EXPECT_EQ(ra.verdict, rb.verdict);
  }
}

}  // namespace
}  // namespace kms
