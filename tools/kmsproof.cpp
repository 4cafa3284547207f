// kmsproof — independent certificate checker for proof-carrying KMS runs.
//
//   kmsproof <dir>
//       Verify an artifact directory written by `kmscli irr --emit-proof
//       <dir>`: parse journal.txt, replay every journal step against its
//       local inference rule, re-check every referenced DRAT certificate
//       from scratch, recompute the input/output digests from the BLIF
//       bytes, and run the structural invariant checker on output.blif.
//
//   kmsproof --proof <file.cnf> <file.drat>
//       Check a single certificate pair (any DIMACS CNF + DRAT text;
//       "c assumption"-flagged units are treated as assumptions).
//
// This binary links only the proof library and its netlist/check
// dependencies — never the solver's search code paths nor the static
// analysis engine — so it cannot inherit a bug from either. Exit code 0 when the certificate verifies, 1 on
// usage errors, 2 on any verification failure (including unreadable or
// forged artifacts).
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "src/proof/checker.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/verify.hpp"
#include "tools/args.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: kmsproof <artifact-dir>\n"
               "       kmsproof --proof <file.cnf> <file.drat>\n"
               "exit codes: 0 verified, 1 usage, 2 verification failure\n");
  return 1;
}

int check_pair(const char* cnf_path, const char* drat_path) {
  std::ifstream cnf(cnf_path);
  std::ifstream drat(drat_path);
  if (!cnf || !drat) {
    std::fprintf(stderr, "kmsproof: cannot open %s\n",
                 !cnf ? cnf_path : drat_path);
    return 2;
  }
  try {
    const kms::proof::DratCertificate cert =
        kms::proof::read_certificate(cnf, drat);
    const kms::proof::DratCheckResult res = kms::proof::check_drat(cert);
    if (!res) {
      std::fprintf(stderr, "REJECTED: %s\n", res.error.c_str());
      return 2;
    }
    std::printf("VERIFIED: %zu lemmas checked, %zu deletions applied\n",
                res.lemmas_checked, res.deletions_applied);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "REJECTED: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string_view(argv[1]) == "--proof")
    return check_pair(argv[2], argv[3]);
  if (argc >= 2 && argv[1][0] == '-' &&
      std::string_view(argv[1]) != "--proof") {
    kms::tools::report_unknown_flag("kmsproof", argv[1]);
    return usage();
  }
  if (argc != 2 || argv[1][0] == '-') return usage();
  {
    // A directory with a write-ahead log but no finalized journal is a
    // crashed durable session, not a forged artifact — say so precisely.
    // (A *resumed* session finalizes the same complete artifact set as
    // an uninterrupted run and is audited below as one logical run.)
    const std::string dir = argv[1];
    const bool has_wal = std::ifstream(dir + "/wal.log").good();
    const bool has_journal = std::ifstream(dir + "/journal.txt").good();
    if (has_wal && !has_journal) {
      std::fprintf(stderr,
                   "REJECTED: %s is an unfinished crashed session (wal.log "
                   "present, journal.txt missing); continue it with "
                   "`kmscli irr --resume %s`, then re-audit\n",
                   dir.c_str(), dir.c_str());
      return 2;
    }
  }
  const kms::proof::VerifyReport rep =
      kms::proof::verify_artifact_dir(argv[1]);
  if (!rep) {
    std::fprintf(stderr, "REJECTED: %s\n", rep.error.c_str());
    return 2;
  }
  std::printf(
      "VERIFIED%s: %zu journal steps, %zu certificates, %zu deletions "
      "proof-backed\n",
      rep.partial ? " (partial run)" : "", rep.steps_checked,
      rep.certificates_checked, rep.deletions_verified);
  return 0;
}
