// Tests for the proof library: DRAT traces, the independent RUP
// checker, the transform journal, and end-to-end session verification.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/kms.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/checker.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/sat/solver.hpp"

namespace kms::proof {
namespace {

using sat::mk_lit;
using sat::Solver;
using sat::Var;

// ---- RUP checker on hand-written certificates ----------------------------

TEST(DratCheckerTest, AcceptsHandWrittenResolutionProof) {
  // (a|b) (a|-b) (-a|c) (-a|-c) is UNSAT. Lemmas: (a), then empty via
  // propagation.
  DratCertificate cert;
  cert.formula = {{1, 2}, {1, -2}, {-1, 3}, {-1, -3}};
  cert.steps = {{DratStep::Kind::kLearn, {1}}};
  const DratCheckResult r = check_drat(cert);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.lemmas_checked, 1u);
}

TEST(DratCheckerTest, RejectsNonRupLemma) {
  // (a|b) alone does not imply (a): asserting -a does not conflict.
  DratCertificate cert;
  cert.formula = {{1, 2}};
  cert.steps = {{DratStep::Kind::kLearn, {1}}};
  const DratCheckResult r = check_drat(cert);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not a RUP consequence"), std::string::npos)
      << r.error;
}

TEST(DratCheckerTest, RejectsProofWithoutEmptyClause) {
  // Satisfiable formula, valid lemma, but no conflict is ever derived.
  DratCertificate cert;
  cert.formula = {{1, 2}, {-1, 2}};
  cert.steps = {{DratStep::Kind::kLearn, {2}}};
  const DratCheckResult r = check_drat(cert);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("empty clause"), std::string::npos) << r.error;
}

TEST(DratCheckerTest, RejectsDeletionOfUnknownClause) {
  DratCertificate cert;
  cert.formula = {{1}, {-1}};
  cert.steps = {{DratStep::Kind::kDelete, {7, 8}}};
  const DratCheckResult r = check_drat(cert);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not in the database"), std::string::npos)
      << r.error;
}

TEST(DratCheckerTest, HonoursDeletionsBeforeJudgingLaterLemmas) {
  // After deleting (a|b), the lemma (a) is no longer derivable.
  DratCertificate cert;
  cert.formula = {{1, 2}, {1, -2}};
  cert.steps = {{DratStep::Kind::kDelete, {1, 2}},
                {DratStep::Kind::kLearn, {1}}};
  const DratCheckResult r = check_drat(cert);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not a RUP consequence"), std::string::npos)
      << r.error;
}

TEST(DratCheckerTest, AssumptionsActAsPremises) {
  // (a -> b), (a -> -b) is SAT, but UNSAT under assumption a.
  DratCertificate cert;
  cert.formula = {{-1, 2}, {-1, -2}};
  cert.assumptions = {1};
  const DratCheckResult r = check_drat(cert);
  EXPECT_TRUE(r.ok) << r.error;
}

// ---- solver-emitted certificates -----------------------------------------

TEST(DratTraceTest, SolverEmitsVerifiableUnsatCertificate) {
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  // Odd anti-equality cycle: UNSAT, needs actual search/learning.
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  auto neq = [&](Var x, Var y) {
    s.add_clause(mk_lit(x), mk_lit(y));
    s.add_clause(mk_lit(x, true), mk_lit(y, true));
  };
  neq(a, b);
  neq(b, c);
  neq(c, a);
  ASSERT_EQ(s.solve(), sat::Result::kUnsat);
  const auto cert = trace.last_unsat_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->formula.size(), 6u);
  const DratCheckResult r = check_drat(*cert);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(DratTraceTest, PigeonholeCertificateWithLearningVerifies) {
  const int pigeons = 5, holes = 4;
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(p[i][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        s.add_clause(mk_lit(p[i][h], true), mk_lit(p[j][h], true));
  ASSERT_EQ(s.solve(), sat::Result::kUnsat);
  const auto cert = trace.last_unsat_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_GT(trace.step_count(), 0u);  // real learning happened
  const DratCheckResult r = check_drat(*cert);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(DratTraceTest, UnsatUnderAssumptionsVerifies) {
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a, true), mk_lit(b));  // a -> b
  ASSERT_EQ(s.solve({mk_lit(a), mk_lit(b, true)}), sat::Result::kUnsat);
  const auto cert = trace.last_unsat_certificate();
  ASSERT_TRUE(cert.has_value());
  ASSERT_EQ(cert->assumptions.size(), 2u);
  const DratCheckResult r = check_drat(*cert);
  EXPECT_TRUE(r.ok) << r.error;
}

// Satellite regression: a reused solver must never let the second query
// inherit the first query's UNSAT conclusion.
TEST(DratTraceTest, SecondQueryOnReusedSolverDoesNotInheritProof) {
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a, true), mk_lit(b));  // a -> b
  // Query 1: UNSAT under {a, -b}.
  ASSERT_EQ(s.solve({mk_lit(a), mk_lit(b, true)}), sat::Result::kUnsat);
  ASSERT_TRUE(trace.last_unsat_certificate().has_value());
  // Query 2: SAT under {a}. The previous conclusion must be gone — a
  // certificate here would claim UNSAT for a satisfiable query.
  ASSERT_EQ(s.solve({mk_lit(a)}), sat::Result::kSat);
  EXPECT_FALSE(trace.last_unsat_certificate().has_value());
  // Query 3: UNSAT again, under its own assumptions; the certificate
  // must carry query 3's assumptions and verify independently.
  ASSERT_EQ(s.solve({mk_lit(b, true), mk_lit(a)}), sat::Result::kUnsat);
  const auto cert = trace.last_unsat_certificate();
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->query, 3u);
  const DratCheckResult r = check_drat(*cert);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(DratTraceTest, RootContradictionYieldsTrivialCertificate) {
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  s.add_clause(mk_lit(a, true));
  ASSERT_EQ(s.solve(), sat::Result::kUnsat);
  const auto cert = trace.last_unsat_certificate();
  ASSERT_TRUE(cert.has_value());
  const DratCheckResult r = check_drat(*cert);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(DratTraceTest, CertificateSurvivesFileRoundTrip) {
  Solver s;
  DratTrace trace;
  s.set_proof(&trace);
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  auto neq = [&](Var x, Var y) {
    s.add_clause(mk_lit(x), mk_lit(y));
    s.add_clause(mk_lit(x, true), mk_lit(y, true));
  };
  neq(a, b);
  neq(b, c);
  // a != b != c forces a == c; assuming them apart is UNSAT.
  ASSERT_EQ(s.solve({mk_lit(a), mk_lit(c, true)}), sat::Result::kUnsat);
  const auto cert = trace.last_unsat_certificate();
  ASSERT_TRUE(cert.has_value());

  std::ostringstream cnf, drat;
  write_cnf(*cert, cnf);
  write_drat(*cert, drat);
  std::istringstream cnf_in(cnf.str()), drat_in(drat.str());
  const DratCertificate back = read_certificate(cnf_in, drat_in);
  EXPECT_EQ(back.formula, cert->formula);
  EXPECT_EQ(back.assumptions, cert->assumptions);
  const DratCheckResult r = check_drat(back);
  EXPECT_TRUE(r.ok) << r.error;
}

// ---- transform journal ---------------------------------------------------

TEST(JournalTest, TextRoundTrip) {
  TransformJournal j;
  j.set_model("weird \"name\" with \\ chars");
  j.set_input_digest(0x0123456789abcdefull);
  j.set_output_digest(0xfedcba9876543210ull);
  j.add_decompose(3);
  j.add_path_unsens("a -> g1(and) -> f", 0);
  j.add_duplicate(2);
  j.add_constant(17);
  j.add_fault_untestable("g1(and)/SA0", 1);
  j.add_delete("g1(and)/SA0", 1);

  std::istringstream in(j.to_text());
  const TransformJournal back = TransformJournal::read(in);
  EXPECT_EQ(back.model(), j.model());
  EXPECT_EQ(back.input_digest(), j.input_digest());
  EXPECT_EQ(back.output_digest(), j.output_digest());
  ASSERT_EQ(back.steps().size(), j.steps().size());
  for (std::size_t i = 0; i < back.steps().size(); ++i) {
    EXPECT_EQ(back.steps()[i].kind, j.steps()[i].kind) << i;
    EXPECT_EQ(back.steps()[i].proof, j.steps()[i].proof) << i;
    EXPECT_EQ(back.steps()[i].what, j.steps()[i].what) << i;
    EXPECT_EQ(back.steps()[i].count, j.steps()[i].count) << i;
  }
  EXPECT_FALSE(back.partial());
}

TEST(JournalTest, PartialRunsFinalizeAsPartial) {
  TransformJournal j;
  j.add_fault_unknown("g1(and)/SA0");
  EXPECT_TRUE(j.partial());
  EXPECT_NE(j.to_text().find("end partial"), std::string::npos);

  std::istringstream in(j.to_text());
  EXPECT_TRUE(TransformJournal::read(in).partial());
}

TEST(JournalTest, RejectsCompleteClaimOverDegradedSteps) {
  TransformJournal j;
  j.mark_partial("injected");
  std::string text = j.to_text();
  const auto pos = text.find("end partial");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "end complete");
  std::istringstream in(text);
  EXPECT_THROW(TransformJournal::read(in), std::runtime_error);
}

TEST(JournalTest, RejectsUnknownStepKind) {
  std::istringstream in(
      "kms-journal v1\nmodel \"m\"\ninput-digest 0\n"
      "step launder-deletion proof=0\noutput-digest 0\nend complete\n");
  EXPECT_THROW(TransformJournal::read(in), std::runtime_error);
}

TEST(JournalTest, RejectsRetiredStepKinds) {
  // Static-claim and witness-drop steps are no longer part of the
  // format: a journal that carries one fails at the step, by kind name.
  for (const std::string step :
       {"fault-static-untestable proof=0 count=1 what=\"x(and)/SA1\" "
        "just=\"site=stem:0 stuck=1 kind=unobservable\"",
        "delete-static proof=0 what=\"x(and)/SA1\"",
        "fault-sim-testable what=\"x(and)/SA0\""}) {
    const std::string kind = step.substr(0, step.find(' '));
    EXPECT_THROW(parse_step(step), std::runtime_error) << step;
    std::istringstream in("kms-journal v1\nmodel \"m\"\ninput-digest 0\n"
                          "step " + step +
                          "\noutput-digest 0\nend complete\n");
    try {
      TransformJournal::read(in);
      ADD_FAILURE() << "retired step kind accepted: " << step;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown step kind '" + kind + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- session verification ------------------------------------------------

/// Classic redundant circuit: f = ab + a'c + bc; the consensus term bc
/// is redundant (both its stuck-at faults are untestable).
constexpr const char* kConsensusBlif =
    ".model consensus\n"
    ".inputs a b c\n"
    ".outputs f\n"
    ".names a b x\n11 1\n"
    ".names a c y\n01 1\n"
    ".names b c z\n11 1\n"
    ".names x y z f\n1-- 1\n-1- 1\n--1 1\n"
    ".end\n";

/// Run the certified pipeline on the consensus circuit, returning the
/// session plus the bracketing serializations.
struct CertifiedRun {
  ProofSession session;
  std::string input, output;
  KmsStats stats;
};

CertifiedRun certified_consensus_run() {
  CertifiedRun run;
  Network net = read_blif_string(kConsensusBlif);
  run.input = write_blif_string(net);
  run.session.journal.set_model(net.name());
  run.session.journal.set_input_digest(digest_bytes(run.input));
  KmsOptions opts;
  opts.context.session = &run.session;
  run.stats = kms_make_irredundant(net, opts);
  run.output = write_blif_string(net);
  run.session.journal.set_output_digest(digest_bytes(run.output));
  return run;
}

TEST(VerifySessionTest, CertifiedKmsRunVerifies) {
  CertifiedRun run = certified_consensus_run();
  ASSERT_GT(run.stats.redundancies_removed, 0u);
  const VerifyReport rep =
      verify_session(run.session, run.input, run.output);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.partial);
  EXPECT_GT(rep.deletions_verified, 0u);
  EXPECT_GT(rep.certificates_checked, 0u);
}

TEST(VerifySessionTest, RejectsForgedDeletionStep) {
  CertifiedRun run = certified_consensus_run();
  // Forge a deletion that cites no untestable verdict.
  run.session.journal.add_delete("x(and)/SA1", -1);
  const VerifyReport rep =
      verify_session(run.session, run.input, run.output);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("without a matching proven"), std::string::npos)
      << rep.error;
}

TEST(VerifySessionTest, RejectsDeletionCitingWrongProof) {
  CertifiedRun run = certified_consensus_run();
  TransformJournal forged;
  forged.set_model(run.session.journal.model());
  forged.set_input_digest(run.session.journal.input_digest());
  forged.set_output_digest(run.session.journal.output_digest());
  for (JournalStep s : run.session.journal.steps()) {
    // Redirect every deletion to a different fault than its proof covers.
    if (s.kind == JournalStep::Kind::kDelete) s.what = "x(and)/SA1";
    forged.add(s);
  }
  run.session.journal = forged;
  const VerifyReport rep =
      verify_session(run.session, run.input, run.output);
  EXPECT_FALSE(rep.ok);
}

TEST(VerifySessionTest, RejectsTamperedCertificate) {
  CertifiedRun run = certified_consensus_run();
  // Strip the formula of one certificate: its conclusion loses support
  // unless the proof never needed that clause — strip ALL clauses to be
  // sure the empty clause is no longer derivable.
  ASSERT_FALSE(run.session.certificates().empty());
  ProofSession tampered;
  tampered.journal = run.session.journal;
  for (DratCertificate c : run.session.certificates()) {
    c.formula.clear();
    c.assumptions.clear();
    tampered.add_certificate(std::move(c));
  }
  const VerifyReport rep = verify_session(tampered, run.input, run.output);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("rejected"), std::string::npos) << rep.error;
}

TEST(VerifySessionTest, RejectsDigestMismatch) {
  CertifiedRun run = certified_consensus_run();
  const VerifyReport rep =
      verify_session(run.session, run.input + "\n", run.output);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("digest"), std::string::npos) << rep.error;
}

TEST(VerifySessionTest, RejectsTransformWithoutPathVerdict) {
  ProofSession session;
  session.journal.set_input_digest(digest_bytes("x"));
  session.journal.set_output_digest(digest_bytes("y"));
  session.journal.add_duplicate(2);  // no preceding path-unsens
  const VerifyReport rep = verify_session(session, "x", "y");
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("unsensitizable-path"), std::string::npos)
      << rep.error;
}

TEST(VerifySessionTest, ArtifactDirRoundTrip) {
  CertifiedRun run = certified_consensus_run();
  const std::string dir =
      testing::TempDir() + "/kms_proof_artifacts_roundtrip";
  write_artifacts(run.session, dir, run.input, run.output);
  const VerifyReport rep = verify_artifact_dir(dir);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_GT(rep.deletions_verified, 0u);
}

TEST(VerifySessionTest, ArtifactDirRejectsMissingPieces) {
  const VerifyReport rep =
      verify_artifact_dir(testing::TempDir() + "/kms_proof_nonexistent");
  EXPECT_FALSE(rep.ok);
}

}  // namespace
}  // namespace kms::proof
