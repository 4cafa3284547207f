// kmscli — command-line front end for the library.
//
// Since the job API redesign this binary is a thin client: it maps its
// command line onto a serve::JobSpec (the shared flag table in
// tools/args.hpp), hands the spec to serve::run_job() — the same entry
// point the kmsd daemon schedules — and renders the returned JobReport
// as the classic text UI. `kmscli X in.blif --flags` and the JSON line
// {"kind":"X",...} submitted to a daemon are therefore the same run by
// construction, byte-identical artifacts included.
//
//   kmscli irr   <in.blif> [-o out.blif] [--mode static|viability]
//                run the KMS algorithm (combinational or .latch BLIF;
//                sequential models are processed through their
//                combinational core per Section I of the paper)
//   kmscli audit <in.blif>
//                stuck-at testability audit (fault counts, redundancies)
//   kmscli delay <in.blif> [--mode static|viability]
//                longest path vs computed delay, with the critical path
//   kmscli stats <in.blif>
//                size/depth/interface summary
//   kmscli analyze <in.blif> [--json]
//                SAT-free static structural analysis (--analyze alias)
//   kmscli lint  <in.blif> [--json] [--strict] [--no-warn]
//                single-file lint via the job API (kmslint remains the
//                multi-file front end)
//
// The --check flag runs the netlist invariant checker (src/check/) on
// the input and after each transform stage, printing diagnostics to
// stderr; error-severity findings abort with exit code 2.
//
// Proof-carrying mode (irr only): --certify runs the whole pipeline
// under a proof session and verifies it in-process (src/proof/); a
// verification failure exits 2. --emit-proof <dir> additionally (or
// instead) writes the artifact set for offline checking with
// `kmsproof <dir>`.
//
// Resource governance: --time-limit <sec> arms a wall-clock deadline and
// --conflict-limit <n> a global SAT conflict budget; SIGINT or SIGTERM
// requests a graceful stop. All three degrade conservatively — an
// undecided fault is kept, an undecided path counts as sensitizable — so
// the output (for irr, still written) is always functionally equivalent;
// partial stats are printed and the exit code is 3. A second
// SIGINT/SIGTERM exits immediately.
//
// Crash safety (irr with --emit-proof): the artifact directory doubles
// as a durable session; a run killed at any instant is continued with
// `kmscli irr --resume <dir>`. See DESIGN.md §14.
//
// Exit code 0 on success, 1 on usage errors, 2 on processing errors,
// 3 on graceful degradation (valid partial result under a resource
// limit or interrupt), 130 on a second SIGINT/SIGTERM (immediate abort).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/base/durable.hpp"
#include "src/base/governor.hpp"
#include "src/check/hooks.hpp"
#include "src/serve/job.hpp"
#include "src/serve/runner.hpp"
#include "tools/args.hpp"

namespace {

using namespace kms;
using serve::JobKind;
using serve::JobReport;
using serve::JobSpec;

int usage() {
  std::fprintf(stderr,
               "usage: kmscli <irr|audit|delay|stats|analyze|lint> <in.blif> "
               "[-o out.blif] [--mode static|viability] [--check]\n"
               "              [--json] [--strict] [--no-warn]        "
               "(analyze/lint)\n"
               "              [--time-limit <sec>] [--conflict-limit <n>] "
               "[--jobs <n>]\n"
               "              [--certify] [--emit-proof <dir>] "
               "[--checkpoint-every <n>]   (irr only)\n"
               "              [--sta full|incremental] [--audit-timing] "
               "[--speculate-k <n>]   (irr only)\n"
               "       kmscli irr --resume <dir> [-o out.blif] [--certify] "
               "[--jobs <n>] ...\n"
               "--jobs: removal-phase worker threads (default 1; 0 = one "
               "per hardware thread);\n"
               "        the result is bit-identical at any worker count\n"
               "--resume: continue a crashed --emit-proof session from its "
               "artifact directory\n"
               "--sta: loop timing engine (default incremental; results are "
               "bit-identical either way)\n"
               "--audit-timing: cross-check the incremental timing tables "
               "against a full recompute\n"
               "               every iteration (rules NL024-NL028; exit 2 on "
               "divergence)\n"
               "--speculate-k: loop sensitization speculation width (default "
               "1 = serial);\n"
               "               end state/proof bit-identical at any width and "
               "--jobs count\n"
               "exit codes: 0 ok, 1 usage, 2 error, 3 degraded "
               "(limit/SIGINT/SIGTERM; output still valid)\n");
  return 1;
}

/// SIGINT/SIGTERM wiring: the handler only flips the governor's atomic
/// flag (async-signal-safe); every solve then winds down cooperatively —
/// the run drains to its next commit point, checkpoints (in durable
/// mode), writes its partial-but-valid output and exits 3. A second
/// signal aborts hard for users who really mean it.
ResourceGovernor* g_governor = nullptr;

void handle_stop_signal(int) {
  if (g_governor == nullptr || g_governor->interrupt_requested())
    std::_Exit(130);
  g_governor->request_interrupt();
}

/// Render the irr summary the way the pre-job-API CLI printed it, from
/// the report's typed counters (the report is the only data channel —
/// the runner never writes to our stderr).
void print_irr_summary(const JobSpec& spec, const JobReport& r) {
  if (r.certified)
    std::fprintf(stderr,
                 "certified%s: %llu journal steps, %llu certificates, "
                 "%llu deletions proof-backed\n",
                 r.certify_partial ? " (partial run)" : "",
                 static_cast<unsigned long long>(r.steps_checked),
                 static_cast<unsigned long long>(r.certificates_checked),
                 static_cast<unsigned long long>(r.deletions_verified));
  std::fprintf(stderr,
               "gates %llu -> %llu, delay %.3f -> %.3f (computed "
               "%.3f -> %.3f), %llu loop transforms, %llu removals\n",
               static_cast<unsigned long long>(r.initial_gates),
               static_cast<unsigned long long>(r.final_gates),
               r.initial_topo_delay, r.final_topo_delay,
               r.initial_computed_delay, r.final_computed_delay,
               static_cast<unsigned long long>(r.constants_set),
               static_cast<unsigned long long>(r.redundancies_removed));
  std::fprintf(
      stderr,
      "removal: %llu passes, %llu sat queries (+%llu structural), "
      "%llu sim-dropped, %llu witness-dropped, "
      "%llu cache hits (%llu invalidated), cone avg %.1f max %llu, "
      "sim %.3fs sat %.3fs\n",
      static_cast<unsigned long long>(r.removal_passes),
      static_cast<unsigned long long>(r.removal_sat_queries),
      static_cast<unsigned long long>(r.removal_structural_shortcuts),
      static_cast<unsigned long long>(r.removal_sim_dropped),
      static_cast<unsigned long long>(r.removal_witness_dropped),
      static_cast<unsigned long long>(r.removal_cache_hits),
      static_cast<unsigned long long>(r.removal_cache_invalidated),
      r.removal_sat_solves > 0
          ? static_cast<double>(r.removal_cone_gates) /
                static_cast<double>(r.removal_sat_solves)
          : 0.0,
      static_cast<unsigned long long>(r.removal_max_cone_gates),
      r.removal_sim_seconds, r.removal_sat_seconds);
  if (r.sta_incremental)
    std::fprintf(stderr,
                 "timing: incremental sta, %llu repairs + %llu rebuilds "
                 "touched %llu gates (per-iteration full recompute: %llu)%s\n",
                 static_cast<unsigned long long>(r.sta_applies),
                 static_cast<unsigned long long>(r.sta_rebuilds),
                 static_cast<unsigned long long>(r.sta_gates_repaired),
                 static_cast<unsigned long long>(r.sta_full_visits),
                 spec.audit_timing ? ", audited" : "");
  if (r.spec_batches > 0 || r.spec_cache_hits > 0)
    std::fprintf(stderr,
                 "speculation: %llu batches, %llu speculative solves, "
                 "%llu cache hits (%llu banked, %llu invalidated)\n",
                 static_cast<unsigned long long>(r.spec_batches),
                 static_cast<unsigned long long>(r.spec_solves),
                 static_cast<unsigned long long>(r.spec_cache_hits),
                 static_cast<unsigned long long>(r.spec_cache_insertions),
                 static_cast<unsigned long long>(r.spec_cache_invalidated));
  if (r.degraded)
    std::fprintf(stderr,
                 "partial result (equivalent, conservatively degraded): "
                 "%llu unknown queries%s%s%s%s\n",
                 static_cast<unsigned long long>(r.unknown_queries),
                 r.deadline_hit ? ", deadline hit" : "",
                 r.budget_exhausted ? ", budget exhausted" : "",
                 r.interrupted ? ", interrupted" : "",
                 r.loop_exit == "unknown"
                     ? " (loop exited on an undecided path verdict)"
                     : "");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  JobSpec spec;
  std::string cmd = argv[1];
  if (cmd == "--analyze") cmd = "analyze";
  if (!serve::parse_job_kind(cmd, &spec.kind) || spec.kind == JobKind::kCertify)
    return usage();
  int first_flag = 3;
  if (argv[2][0] == '-' && argv[2][1] == '-') {
    // Flag-only invocation (kmscli irr --resume <dir>): no input path.
    first_flag = 2;
  } else {
    spec.blif_path = argv[2];
  }
  for (int i = first_flag; i < argc; ++i) {
    switch (tools::parse_job_flag("kmscli", argc, argv, &i, &spec)) {
      case tools::FlagResult::kHandled:
        break;
      case tools::FlagResult::kBadValue:
        return usage();
      case tools::FlagResult::kUnknown:
        tools::report_unknown_flag("kmscli", argv[i]);
        return usage();
    }
  }
  if (!spec.validate().empty()) {
    std::fprintf(stderr, "kmscli: %s\n", spec.validate().c_str());
    return usage();
  }

  if (spec.check) install_invariant_self_checks();
  ResourceGovernor governor;
  g_governor = &governor;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  // Crash-injection harness hook (KMS_CRASH_AT=<n> kills the process at
  // the n-th durability kill point); no-op outside the test suite.
  kill_points_init_from_env();

  const JobReport rep = serve::run_job(spec, governor);

  // Structured diagnostics (check findings, resume note, degradation)
  // all go to stderr, like they always have.
  for (const std::string& d : rep.diagnostics)
    std::fprintf(stderr, "%s\n", d.c_str());
  if (!rep.error.empty()) std::fprintf(stderr, "error: %s\n", rep.error.c_str());
  if ((spec.kind == JobKind::kIrr) && rep.exit_code != 1 && rep.error.empty())
    print_irr_summary(spec, rep);
  if (!rep.text.empty()) std::fwrite(rep.text.data(), 1, rep.text.size(), stdout);
  if (!rep.output_blif.empty())
    std::fwrite(rep.output_blif.data(), 1, rep.output_blif.size(), stdout);
  if (rep.verdict == "rejected") return usage();
  return rep.exit_code;
}
