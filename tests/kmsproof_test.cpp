// End-to-end test of the proof-carrying pipeline through the real
// binaries: kmscli irr --certify --emit-proof produces an artifact
// directory that kmsproof verifies, and corrupted artifacts — a
// tampered proof, a forged journal step, a swapped output netlist — are
// rejected with exit code 2. Certify artifacts are reproducible: the
// journal does not depend on the worker count, and two identical runs
// write byte-identical directories, wal.log included.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/gen/adders.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/recover/wal.hpp"

#ifndef KMSCLI_PATH
#error "KMSCLI_PATH must be defined by the build"
#endif
#ifndef KMSPROOF_PATH
#error "KMSPROOF_PATH must be defined by the build"
#endif
#ifndef PERFBENCH_INPUTS_DIR
#error "PERFBENCH_INPUTS_DIR must be defined by the build"
#endif

namespace kms {
namespace {

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  // Per-process suffix: ctest runs each case as its own process, and a
  // parallel ctest (-j > 1) would otherwise have concurrent cases
  // clobbering each other's fixture files.
  return std::string(dir ? dir : "/tmp") + "/" + name + "." +
         std::to_string(getpid());
}

int exit_code(const std::string& cmd) {
  const int raw = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Fixture: one certified run over a redundant carry-skip adder, with
/// the artifact directory recreated fresh for each corruption.
class KmsproofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Network net = carry_skip_adder(3, 3);
    decompose_to_simple(net);
    in_path_ = temp_path("kmsproof_in.blif");
    out_path_ = temp_path("kmsproof_out.blif");
    dir_ = temp_path("kmsproof_artifacts");
    write_blif_file(net, in_path_);
    std::system(("rm -rf " + dir_).c_str());
    ASSERT_EQ(exit_code(std::string(KMSCLI_PATH) + " irr " + in_path_ +
                        " -o " + out_path_ + " --certify --emit-proof " +
                        dir_),
              0);
  }

  void TearDown() override {
    std::remove(in_path_.c_str());
    std::remove(out_path_.c_str());
    std::system(("rm -rf " + dir_).c_str());
  }

  int verify() { return exit_code(std::string(KMSPROOF_PATH) + " " + dir_); }

  std::string in_path_, out_path_, dir_;
};

TEST_F(KmsproofTest, EmittedArtifactsVerify) {
  EXPECT_EQ(verify(), 0);
}

TEST_F(KmsproofTest, SingleCertificatePairVerifies) {
  // The carry-skip adder has redundancies, so at least q0 exists.
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " --proof " + dir_ +
                      "/q0.cnf " + dir_ + "/q0.drat"),
            0);
}

TEST_F(KmsproofTest, RejectsTamperedCertificate) {
  // Gut the CNF: keep only the header. The journal's untestable-fault
  // steps now cite certificates whose conclusions have no support.
  spit(dir_ + "/q0.cnf", "p cnf 1 0\n");
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, RejectsForgedJournalDeletion) {
  // Remove the untestable-fault verdicts: the deletions that cited them
  // become unproved claims.
  std::istringstream in(slurp(dir_ + "/journal.txt"));
  std::ostringstream out;
  std::string line;
  bool dropped = false;
  while (std::getline(in, line)) {
    if (line.rfind("step fault-untestable", 0) == 0) {
      dropped = true;
      continue;
    }
    out << line << "\n";
  }
  ASSERT_TRUE(dropped) << "run produced no untestable-fault steps";
  spit(dir_ + "/journal.txt", out.str());
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, RejectsSwappedOutputNetlist) {
  spit(dir_ + "/output.blif",
       ".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n");
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, RejectsJournalClaimingUnprovedDeletion) {
  // Redirect a delete step at a proof id that was never emitted.
  std::istringstream in(slurp(dir_ + "/journal.txt"));
  std::ostringstream out;
  std::string line;
  bool rewrote = false;
  while (std::getline(in, line)) {
    if (!rewrote && line.rfind("step delete proof=", 0) == 0) {
      const auto what = line.find(" what=");
      ASSERT_NE(what, std::string::npos);
      out << "step delete proof=9999" << line.substr(what) << "\n";
      rewrote = true;
      continue;
    }
    out << line << "\n";
  }
  ASSERT_TRUE(rewrote) << "run produced no delete steps";
  spit(dir_ + "/journal.txt", out.str());
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, UsageErrorsExitOne) {
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH)), 1);
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " --bogus"), 1);
}

TEST_F(KmsproofTest, MissingDirectoryRejected) {
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " " +
                      temp_path("kmsproof_no_such_dir")),
            2);
}

// ---- reproducible certify artifacts ---------------------------------------

const std::string kCsa82 = std::string(PERFBENCH_INPUTS_DIR) + "/csa_8_2.blif";

/// `kmscli irr <in> --certify --emit-proof <dir> --jobs <jobs>` into a
/// fresh directory; returns the exit code.
int certify(const std::string& dir, unsigned jobs) {
  std::system(("rm -rf " + dir).c_str());
  return exit_code(std::string(KMSCLI_PATH) + " irr " + kCsa82 +
                   " -o /dev/null --certify --emit-proof " + dir +
                   " --jobs " + std::to_string(jobs));
}

/// Every file of `dir` by name, with its bytes.
std::map<std::string, std::string> dir_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    files[e.path().filename().string()] = slurp(e.path().string());
  return files;
}

TEST(CertifyArtifactsTest, JournalIdenticalAcrossJobCounts) {
  // Nothing in a certify journal may depend on the worker schedule:
  // one run at --jobs 1, then four at --jobs 4, byte for byte.
  const std::string dir = temp_path("kmsproof_jobs");
  ASSERT_EQ(certify(dir, 1), 0);
  const std::string journal = slurp(dir + "/journal.txt");
  ASSERT_NE(journal.find("step delete"), std::string::npos);
  for (int run = 0; run < 4; ++run) {
    ASSERT_EQ(certify(dir, 4), 0);
    EXPECT_EQ(slurp(dir + "/journal.txt"), journal) << "jobs=4 run " << run;
  }
  std::system(("rm -rf " + dir).c_str());
}

TEST(CertifyArtifactsTest, IdenticalRunsWriteIdenticalDirectories) {
  // Durable state holds no wall-clock data: two identical runs leave
  // the same files with the same bytes, wal.log included.
  const std::string a = temp_path("kmsproof_repro_a");
  const std::string b = temp_path("kmsproof_repro_b");
  ASSERT_EQ(certify(a, 1), 0);
  ASSERT_EQ(certify(b, 1), 0);
  const auto fa = dir_files(a), fb = dir_files(b);
  ASSERT_TRUE(fa.count("wal.log"));
  EXPECT_EQ(fa.size(), fb.size());
  for (const auto& [name, bytes] : fa) {
    const auto it = fb.find(name);
    ASSERT_NE(it, fb.end()) << name;
    EXPECT_TRUE(it->second == bytes) << name << " differs";
  }
  std::system(("rm -rf " + a + " " + b).c_str());
}

TEST(CertifyArtifactsTest, ResumeRejectsRetiredMetaKey) {
  // A session directory written before the static pre-pass was deleted
  // carries a `static-prepass` line in its meta record. Resuming it
  // fails on that key (no compatibility path) and leaves every file of
  // the directory as it was.
  Network net = carry_skip_adder(3, 3);
  decompose_to_simple(net);
  const std::string in = temp_path("kmsproof_oldmeta_in.blif");
  const std::string dir = temp_path("kmsproof_oldmeta");
  write_blif_file(net, in);
  std::system(("rm -rf " + dir).c_str());
  ASSERT_EQ(exit_code(std::string(KMSCLI_PATH) + " irr " + in +
                      " -o /dev/null --emit-proof " + dir),
            0);
  // Rewrite the log as an unfinished session of the old format: the
  // meta record gains the retired key, the completion record goes.
  const std::string wal = dir + "/wal.log";
  const recover::WalReadResult log = recover::read_wal(wal);
  ASSERT_TRUE(log.ok) << log.error;
  ASSERT_GE(log.records.size(), 2u);
  std::string meta = log.records.front().payload;
  const auto pos = meta.find("incremental ");
  ASSERT_NE(pos, std::string::npos);
  meta.insert(pos, "static-prepass 1\n");
  {
    recover::WalWriter w = recover::WalWriter::create(wal);
    w.append(meta);
    for (std::size_t i = 1; i + 1 < log.records.size(); ++i)
      w.append(log.records[i].payload);
    w.sync();
  }
  const auto before = dir_files(dir);
  const std::string err = temp_path("kmsproof_oldmeta_err");
  const int raw =
      std::system((std::string(KMSCLI_PATH) + " irr --resume " + dir +
                   " -o /dev/null >/dev/null 2>" + err)
                      .c_str());
  ASSERT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 2);
  EXPECT_NE(slurp(err).find("meta: unknown key 'static-prepass'"),
            std::string::npos)
      << slurp(err);
  EXPECT_EQ(dir_files(dir), before);
  std::remove(in.c_str());
  std::remove(err.c_str());
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace
}  // namespace kms
