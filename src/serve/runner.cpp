#include "src/serve/runner.hpp"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>

#include "src/analysis/report.hpp"
#include "src/analysis/rules.hpp"
#include "src/atpg/atpg.hpp"
#include "src/check/checker.hpp"
#include "src/check/diagnostics.hpp"
#include "src/core/kms.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/recover/session.hpp"
#include "src/seq/seq_network.hpp"
#include "src/timing/checker.hpp"
#include "src/timing/path.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

namespace kms::serve {
namespace {

void appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out->append(buf, static_cast<std::size_t>(n) < sizeof buf
                                  ? static_cast<std::size_t>(n)
                                  : sizeof buf - 1);
}

/// Load either a combinational or a sequential BLIF file.
BlifSequential load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BlifError("cannot open " + path);
  return read_blif_sequential(in);
}

/// The spec's payload as parsed model + exact source bytes (durable
/// sessions persist the bytes; digests are computed over them).
BlifSequential load_payload(const JobSpec& spec, std::string* source_bytes) {
  if (!spec.blif.empty()) {
    if (source_bytes != nullptr) *source_bytes = spec.blif;
    return read_blif_sequential_string(spec.blif);
  }
  if (source_bytes == nullptr) return load_file(spec.blif_path);
  std::ifstream in(spec.blif_path, std::ios::binary);
  if (!in) throw BlifError("cannot open " + spec.blif_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  *source_bytes = ss.str();
  return read_blif_sequential_string(*source_bytes);
}

/// --emit-proof preflight: create the artifact directory and prove it
/// is writable before any expensive work starts, with a diagnostic that
/// names the actual problem instead of failing an hour in.
void preflight_artifact_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("cannot create artifact directory '" + dir +
                             "': " + ec.message());
  if (!std::filesystem::is_directory(dir))
    throw std::runtime_error("artifact path '" + dir +
                             "' exists but is not a directory");
  const std::string probe = dir + "/.kms-probe.tmp";
  {
    std::ofstream out(probe, std::ios::trunc);
    if (!(out << "probe\n"))
      throw std::runtime_error("artifact directory '" + dir +
                               "' is not writable");
  }
  std::filesystem::remove(probe, ec);
}

/// Run the invariant checker, folding findings into the report's
/// structured diagnostics. Throws CheckFailure on error severity.
void check_stage(const JobSpec& spec, JobReport* rep, const Network& net,
                 const char* stage) {
  if (!spec.check) return;
  const Diagnostics diags = NetworkChecker().run(net);
  if (!diags.empty()) {
    std::istringstream lines(
        diags.to_text(std::string("check(") + stage + "): "));
    std::string line;
    while (std::getline(lines, line))
      if (!line.empty()) rep->diagnostics.push_back(line);
  }
  if (diags.error_count() > 0)
    throw CheckFailure(std::string("invariant violations at stage ") + stage);
}

/// Fold the governor's verdict into the report: degradation flags, the
/// charged budgets, and the exit code (3 = valid partial result).
void finish_governed(const ResourceGovernor& governor, JobReport* rep) {
  const GovernorReport r = governor.report();
  rep->gov_queries = r.queries;
  rep->gov_unknown = r.unknown_results;
  rep->gov_conflicts = r.conflicts;
  rep->gov_propagations = r.propagations;
  rep->deadline_hit = rep->deadline_hit || r.deadline_hit;
  rep->budget_exhausted = rep->budget_exhausted || r.budget_exhausted;
  rep->interrupted = rep->interrupted || r.interrupted;
  if (r.degraded()) {
    rep->degraded = true;
    std::string note;
    appendf(&note,
            "degraded: %llu of %llu queries unknown%s%s%s "
            "(%llu conflicts, %llu propagations charged)",
            static_cast<unsigned long long>(r.unknown_results),
            static_cast<unsigned long long>(r.queries),
            r.deadline_hit ? ", deadline hit" : "",
            r.budget_exhausted ? ", conflict budget exhausted" : "",
            r.interrupted ? ", interrupted" : "",
            static_cast<unsigned long long>(r.conflicts),
            static_cast<unsigned long long>(r.propagations));
    rep->diagnostics.push_back(note);
    if (rep->exit_code == 0) rep->exit_code = 3;
  }
}

void run_stats(const JobSpec& spec, ResourceGovernor&, JobReport* rep) {
  const BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  const std::size_t latches = model.latch_init.size();
  const Network& net = model.comb;
  appendf(&rep->text, "model          : %s\n", net.name().c_str());
  appendf(&rep->text, "inputs/outputs : %zu / %zu\n",
          net.inputs().size() - latches, net.outputs().size() - latches);
  appendf(&rep->text, "latches        : %zu\n", latches);
  appendf(&rep->text, "gates          : %zu (depth %zu, max fanout %zu)\n",
          net.count_gates(), net.depth(), net.max_fanout());
  rep->initial_gates = rep->final_gates = net.count_gates();
}

void run_delay(const JobSpec& spec, ResourceGovernor& governor,
               JobReport* rep) {
  BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  decompose_to_simple(model.comb);
  check_stage(spec, rep, model.comb, "decompose_to_simple");
  const SensitizationMode mode = spec.mode == "viability"
                                     ? SensitizationMode::kViability
                                     : SensitizationMode::kStatic;
  const double topo = topological_delay(model.comb);
  const DelayReport r = computed_delay(model.comb, mode, 200000, &governor);
  appendf(&rep->text, "longest path    : %.3f\n", topo);
  appendf(&rep->text, "computed delay  : %.3f (%s, %s)\n", r.delay,
          mode == SensitizationMode::kStatic ? "static sensitization"
                                             : "viability",
          r.exact ? "exact"
                  : (r.aborted ? "upper bound, resources exhausted"
                               : "upper bound, budget exhausted"));
  if (r.witness)
    appendf(&rep->text, "critical path   : %s\n",
            format_path(model.comb, *r.witness).c_str());
  if (topo > r.delay + 1e-9 && r.exact)
    appendf(&rep->text,
            "note: the longest path is FALSE — a plain static timing "
            "verifier overestimates this circuit by %.3f\n",
            topo - r.delay);
  rep->initial_topo_delay = rep->final_topo_delay = topo;
  rep->initial_computed_delay = rep->final_computed_delay = r.delay;
}

void run_analyze(const JobSpec& spec, ResourceGovernor&, JobReport* rep) {
  BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  decompose_to_simple(model.comb);
  check_stage(spec, rep, model.comb, "decompose_to_simple");
  const analysis::AnalysisReport report = analysis::run_analysis(model.comb);
  std::ostringstream ss;
  if (spec.json)
    report.print_json(ss);
  else
    report.print_text(ss);
  rep->text = ss.str();
}

void run_lint(const JobSpec& spec, ResourceGovernor&, JobReport* rep) {
  Diagnostics diags;
  try {
    const BlifSequential model = load_payload(spec, nullptr);
    CheckOptions copts;
    copts.warnings = spec.warnings;
    diags = NetworkChecker(copts).run(model.comb);
    // The analysis-backed and timing rules assume the representation
    // invariants hold; skip them on a structurally broken netlist.
    if (diags.error_count() == 0) {
      if (spec.warnings) analysis::run_analysis_rules(model.comb, &diags);
      run_timing_rules(model.comb, &diags, 100, spec.warnings);
    }
  } catch (const BlifError& e) {
    Diagnostic d;
    d.rule = "NL900";
    std::string msg = e.what();
    if (msg.rfind("line ", 0) == 0) {
      d.line = std::atoi(msg.c_str() + 5);
      const auto colon = msg.find(": ");
      if (colon != std::string::npos) msg.erase(0, colon + 2);
    }
    d.message = std::move(msg);
    diags.add(std::move(d));
  }
  rep->lint_errors = diags.error_count();
  rep->lint_findings = diags.all().size();
  std::ostringstream ss;
  if (spec.json)
    diags.print_json(ss);
  else
    diags.print_text(ss, "");
  rep->text = ss.str();
  {
    std::istringstream lines(rep->text);
    std::string line;
    while (std::getline(lines, line))
      if (!line.empty() && !spec.json) rep->diagnostics.push_back(line);
  }
  if (diags.error_count() > 0 || (spec.strict && !diags.empty()))
    rep->exit_code = 2;
}

void run_audit(const JobSpec& spec, ResourceGovernor& governor,
               JobReport* rep) {
  BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  decompose_to_simple(model.comb);
  check_stage(spec, rep, model.comb, "decompose_to_simple");
  const auto faults = collapsed_faults(model.comb);
  Atpg atpg(model.comb, &governor);
  std::size_t redundant = 0;
  std::size_t unresolved = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (governor.should_stop()) {
      // Out of resources: everything not yet queried stays unresolved
      // (conservatively assumed testable), never reported redundant.
      unresolved += faults.size() - i;
      break;
    }
    const TestOutcome outcome = atpg.generate_test(faults[i]).outcome;
    if (outcome == TestOutcome::kUntestable) {
      ++redundant;
      appendf(&rep->text, "redundant: %s\n",
              format_fault(model.comb, faults[i]).c_str());
    } else if (outcome == TestOutcome::kUnknown) {
      ++unresolved;
    }
  }
  const AtpgStats& as = atpg.stats();
  appendf(&rep->text, "faults         : %zu collapsed\n", faults.size());
  appendf(&rep->text, "redundant      : %zu\n", redundant);
  appendf(&rep->text,
          "unknown        : %zu (resource-limited; treated as testable)\n",
          unresolved);
  appendf(&rep->text, "sat conflicts  : %llu\n",
          static_cast<unsigned long long>(as.sat_conflicts));
  appendf(&rep->text, "sat solves     : %llu (+%llu structural shortcuts)\n",
          static_cast<unsigned long long>(as.sat_solves),
          static_cast<unsigned long long>(as.structural_shortcuts));
  if (as.sat_solves > 0)
    appendf(&rep->text, "cone gates     : %.1f avg, %llu max per solve\n",
            static_cast<double>(as.cone_gates_encoded) /
                static_cast<double>(as.sat_solves),
            static_cast<unsigned long long>(as.max_cone_gates));
  appendf(&rep->text, "verdict        : %s\n",
          redundant != 0    ? "NOT fully testable"
          : unresolved != 0 ? "inconclusive (resource limit)"
                            : "fully single-stuck-at testable");
  rep->audit_faults = faults.size();
  rep->audit_redundant = redundant;
  rep->audit_unknown = unresolved;
  rep->audit_sat_conflicts = as.sat_conflicts;
  rep->removal_sat_solves = as.sat_solves;
  rep->removal_structural_shortcuts = as.structural_shortcuts;
  rep->removal_cone_gates = as.cone_gates_encoded;
  rep->removal_max_cone_gates = as.max_cone_gates;
}

void fill_kms_stats(const KmsStats& stats, JobReport* rep) {
  rep->iterations = stats.iterations;
  rep->duplicated_gates = stats.duplicated_gates;
  rep->constants_set = stats.constants_set;
  rep->redundancies_removed = stats.redundancies_removed;
  rep->initial_gates = stats.initial_gates;
  rep->final_gates = stats.final_gates;
  rep->initial_max_fanout = stats.initial_max_fanout;
  rep->final_max_fanout = stats.final_max_fanout;
  rep->initial_topo_delay = stats.initial_topo_delay;
  rep->final_topo_delay = stats.final_topo_delay;
  rep->initial_computed_delay = stats.initial_computed_delay;
  rep->final_computed_delay = stats.final_computed_delay;
  rep->loop_exit = stats.loop_exit;
  rep->unknown_queries = stats.unknown_queries;
  rep->degraded = rep->degraded || stats.degraded;
  rep->deadline_hit = rep->deadline_hit || stats.deadline_hit;
  rep->budget_exhausted = rep->budget_exhausted || stats.budget_exhausted;
  rep->interrupted = rep->interrupted || stats.interrupted;
  const RedundancyRemovalResult& r = stats.removal;
  rep->removal_passes = r.passes;
  rep->removal_sat_queries = r.sat_queries;
  rep->removal_structural_shortcuts = r.structural_shortcuts;
  rep->removal_sim_dropped = r.sim_dropped;
  rep->removal_witness_dropped = r.witness_dropped;
  rep->removal_cache_hits = r.cache_hits;
  rep->removal_cache_invalidated = r.cache_invalidated;
  rep->removal_sat_solves = r.atpg.sat_solves;
  rep->removal_cone_gates = r.atpg.cone_gates_encoded;
  rep->removal_max_cone_gates = r.atpg.max_cone_gates;
  rep->removal_sim_seconds = r.sim_seconds;
  rep->removal_sat_seconds = r.sat_seconds;
  rep->sta_incremental = stats.sta_incremental;
  rep->sta_applies = stats.sta_applies;
  rep->sta_rebuilds = stats.sta_rebuilds;
  rep->sta_gates_repaired = stats.sta_gates_repaired;
  rep->sta_full_visits = stats.sta_full_visits;
  rep->spec_batches = stats.spec_batches;
  rep->spec_solves = stats.spec_solves;
  rep->spec_cache_hits = stats.spec_cache_hits;
  rep->spec_cache_insertions = stats.spec_cache_insertions;
  rep->spec_cache_invalidated = stats.spec_cache_invalidated;
}

void run_irr(const JobSpec& spec, ResourceGovernor& governor, JobReport* rep) {
  const bool certify = spec.certify || spec.kind == JobKind::kCertify;
  const bool resuming = !spec.resume.empty();
  // An artifact directory makes the run a durable session: the journal
  // is write-ahead-logged and checkpointed so a killed run resumes.
  const bool durable = resuming || !spec.emit_proof.empty();
  const bool proving = certify || durable;

  BlifSequential model;
  recover::ResumeSetup rs;  // owns the resume state across the run
  proof::ProofSession own_session;
  proof::ProofSession* session = resuming ? &rs.session : &own_session;
  std::string proof_input;
  std::optional<recover::DurableSession> dur;
  KmsOptions opts;

  if (resuming) {
    rs = recover::prepare_resume(spec.resume);
    model = std::move(rs.model);
    proof_input = rs.proof_input;
    // The session's recorded configuration wins: resume-time options
    // must not silently change what the result bits depend on. jobs
    // may differ — the result is worker-count invariant.
    recover::apply_meta(rs.info.meta, &opts);
    if (rs.info.has_checkpoint) opts.resume = &rs.state;
    dur.emplace(
        recover::DurableSession::attach(spec.resume, rs.info, session));
    std::string note;
    appendf(&note, "resuming %s: phase %s, %llu steps, %llu removals "
                   "committed",
            spec.resume.c_str(),
            rs.info.has_checkpoint ? rs.info.ckpt.phase.c_str() : "start",
            static_cast<unsigned long long>(rs.info.steps.size()),
            static_cast<unsigned long long>(
                rs.info.has_checkpoint ? rs.info.ckpt.stats.removal.removed
                                       : 0));
    rep->diagnostics.push_back(note);
  } else {
    opts.mode = spec.mode == "viability" ? SensitizationMode::kViability
                                         : SensitizationMode::kStatic;
    std::string source_bytes;
    if (durable) preflight_artifact_dir(spec.emit_proof);
    model = load_payload(spec, &source_bytes);
    if (!proving) rep->input_digest = proof::digest_bytes(source_bytes);
    check_stage(spec, rep, model.comb, "input");
    if (proving) {
      // The journal brackets the combinational core the pipeline
      // actually transforms, serialized before any transform runs.
      proof_input = write_blif_string(model.comb);
      session->journal.set_model(model.comb.name());
      session->journal.set_input_digest(proof::digest_bytes(proof_input));
    }
    if (durable) {
      const recover::SessionMeta meta = recover::make_meta(
          model.comb.name(), opts, static_cast<unsigned>(spec.jobs),
          spec.checkpoint_every, proof::digest_bytes(source_bytes));
      dur.emplace(recover::DurableSession::create(spec.emit_proof, meta,
                                                  source_bytes, session));
    }
  }
  // One RunContext configures the whole pipeline: governor, proof
  // session, invariant checkpoints between KMS loop phases, the
  // removal-phase worker count and the durability sink.
  opts.context.governor = &governor;
  opts.context.session = proving ? session : nullptr;
  opts.context.check_invariants = spec.check;
  opts.context.jobs = static_cast<unsigned>(spec.jobs);
  // A resumed run reuses the recorded worker count unless the spec
  // overrides it (jobs is result-invariant, so both are legal).
  if (resuming && spec.jobs == 1) opts.context.jobs = rs.info.meta.jobs;
  // Engine selection is free at resume time too: the incremental and
  // full engines produce bit-identical results, so neither is part of
  // the session's recorded configuration.
  opts.incremental_sta = spec.sta != "full";
  opts.audit_timing = spec.audit_timing;
  opts.speculate_k = static_cast<std::size_t>(spec.speculate_k);
  if (dur) opts.context.sink = &*dur;
  const KmsStats stats = kms_make_irredundant(model.comb, opts);
  check_stage(spec, rep, model.comb, "kms_make_irredundant");
  fill_kms_stats(stats, rep);
  const std::string proof_output =
      proving ? write_blif_string(model.comb) : std::string();
  if (proving) {
    session->journal.set_output_digest(proof::digest_bytes(proof_output));
    if (dur) dur->finalize(proof_input, proof_output);
    rep->input_digest = proof::digest_bytes(proof_input);
    rep->output_digest = proof::digest_bytes(proof_output);
    if (certify) {
      const proof::VerifyReport vrep =
          proof::verify_session(*session, proof_input, proof_output);
      if (!vrep) {
        rep->error = "certification FAILED: " + vrep.error;
        rep->exit_code = 2;
        return;
      }
      rep->certified = true;
      rep->certify_partial = vrep.partial;
      rep->steps_checked = vrep.steps_checked;
      rep->certificates_checked = vrep.certificates_checked;
      rep->deletions_verified = vrep.deletions_verified;
    }
  }
  // The result netlist, as the CLI would write it (sequential wrapper
  // restored around the transformed combinational core).
  std::ostringstream out;
  write_blif_sequential(model.comb, model.latch_init.size(),
                        model.latch_init, out);
  const std::string out_bytes = out.str();
  if (rep->output_digest == 0)
    rep->output_digest = proof::digest_bytes(out_bytes);
  if (!spec.output_path.empty()) {
    std::ofstream f(spec.output_path);
    if (!f) throw BlifError("cannot open " + spec.output_path);
    f << out_bytes;
  }
  if (spec.want_output) rep->output_blif = out_bytes;
}

}  // namespace

JobReport run_job(const JobSpec& spec, ResourceGovernor& governor) {
  JobReport rep;
  rep.kind = job_kind_name(spec.kind);
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    rep.verdict = "rejected";
    rep.error = problem;
    rep.exit_code = 1;
    return rep;
  }
  if (spec.time_limit > 0) governor.set_time_limit(spec.time_limit);
  if (spec.conflict_limit >= 0)
    governor.set_conflict_limit(spec.conflict_limit);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    switch (spec.kind) {
      case JobKind::kIrr:
      case JobKind::kCertify:
        run_irr(spec, governor, &rep);
        break;
      case JobKind::kAudit:
        run_audit(spec, governor, &rep);
        finish_governed(governor, &rep);
        break;
      case JobKind::kAnalyze:
        run_analyze(spec, governor, &rep);
        break;
      case JobKind::kLint:
        run_lint(spec, governor, &rep);
        break;
      case JobKind::kDelay:
        run_delay(spec, governor, &rep);
        finish_governed(governor, &rep);
        break;
      case JobKind::kStats:
        if (spec.blif.empty() && spec.blif_path.empty()) {
          // Daemon-level stats are answered by kmsd itself; a local
          // runner has no daemon counters to report.
          rep.verdict = "rejected";
          rep.error = "stats without a payload is a daemon-only job";
          rep.exit_code = 1;
          return rep;
        }
        run_stats(spec, governor, &rep);
        break;
    }
    if (spec.kind == JobKind::kIrr || spec.kind == JobKind::kCertify)
      if (rep.exit_code != 2) finish_governed(governor, &rep);
  } catch (const std::exception& e) {
    rep.error = e.what();
    rep.exit_code = 2;
  }
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rep.verdict = rep.exit_code == 0   ? "ok"
                : rep.exit_code == 3 ? "degraded"
                                     : "error";
  return rep;
}

}  // namespace kms::serve
