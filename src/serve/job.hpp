// The job-oriented public API: JobSpec in, JobReport out.
//
// Every way of running the engine — the kmscli command line, the kmsd
// daemon, a test harness — builds the same serializable JobSpec and
// receives the same serializable JobReport, so there is exactly one
// behavior to test and the CLI and the service cannot drift apart.
// Before this header the tools each re-threaded RunContext, governor
// limits and stats printing by hand; now all engine options are plain
// data with a schema-versioned JSON round-trip.
//
// Wire format: one JSON object per line (NDJSON). A spec whose "schema"
// is not exactly kJobSchemaV1 is rejected, as is any unknown key — a
// daemon must fail loudly on input from a future client rather than
// silently ignore an option that changes the result.
//
// The field tables are X-macros so serialization, parsing, equality and
// the round-trip fuzz tests enumerate exactly the same set: adding a
// field in one place adds it everywhere, and a field that would not
// survive the round trip cannot be added by construction.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace kms::serve {

inline constexpr const char* kJobSchemaV1 = "kms-job-v1";
inline constexpr const char* kReportSchemaV2 = "kms-report-v2";

class JobError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the job asks the engine to do. kCertify is kIrr with the
/// in-process proof audit forced on (spec.certify is implied); kStats
/// with a payload summarizes the circuit, without one it reports the
/// serving daemon's own counters.
enum class JobKind { kIrr, kAudit, kCertify, kAnalyze, kLint, kDelay, kStats };

const char* job_kind_name(JobKind kind);
bool parse_job_kind(const std::string& name, JobKind* out);

// JobSpec field tables. Defaults here ARE the public CLI defaults —
// tools/args.hpp maps flags straight onto these fields.
#define KMS_JOB_SPEC_STRING_FIELDS(X)                                       \
  X(client, "")           /* identity for per-client admission caps    */   \
  X(blif, "")             /* inline BLIF payload ...                   */   \
  X(blif_path, "")        /* ... or a server-readable path (pick one)  */   \
  X(mode, "static")       /* sensitization: "static" | "viability"     */   \
  X(sta, "incremental")   /* loop timing engine: "incremental"|"full"  */   \
  X(emit_proof, "")       /* artifact directory (irr/certify only)     */   \
  X(resume, "")           /* crashed-session directory to continue     */   \
  X(output_path, "")      /* write the result BLIF here (irr only)     */

#define KMS_JOB_SPEC_U64_FIELDS(X)                                          \
  X(jobs, 1)              /* removal workers; 0 = hardware concurrency */   \
  X(speculate_k, 1)       /* loop speculation width                    */   \
  X(checkpoint_every, 8)  /* commits per checkpoint; 0 = phases only   */

#define KMS_JOB_SPEC_I64_FIELDS(X)                                          \
  X(conflict_limit, -1)   /* global SAT conflict budget; -1 unlimited  */

#define KMS_JOB_SPEC_F64_FIELDS(X)                                          \
  X(time_limit, 0.0)      /* wall-clock seconds; 0 = unlimited         */

#define KMS_JOB_SPEC_BOOL_FIELDS(X)                                         \
  X(check, false)         /* netlist invariant checker between stages  */   \
  X(certify, false)       /* verify the proof session in-process       */   \
  X(audit_timing, false)  /* NL024-NL028 cross-check per STA repair    */   \
  X(json, false)          /* analyze/lint: machine-readable text       */   \
  X(strict, false)        /* lint: warnings fail the job               */   \
  X(warnings, true)       /* lint: run warning-severity rules          */   \
  X(want_output, true)    /* irr: include the result BLIF in the report*/

struct JobSpec {
  std::string schema = kJobSchemaV1;
  JobKind kind = JobKind::kIrr;

#define KMS_DECL(name, dflt) std::string name = dflt;
  KMS_JOB_SPEC_STRING_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) std::uint64_t name = dflt;
  KMS_JOB_SPEC_U64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) std::int64_t name = dflt;
  KMS_JOB_SPEC_I64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) double name = dflt;
  KMS_JOB_SPEC_F64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) bool name = dflt;
  KMS_JOB_SPEC_BOOL_FIELDS(KMS_DECL)
#undef KMS_DECL

  /// Canonical one-line JSON: every field, fixed order. Two specs are
  /// equal iff their canonical JSON is byte-equal.
  std::string to_json() const;

  /// Cheap structural validation (payload present where required, enum
  /// strings legal, numeric ranges); returns a diagnostic or "".
  std::string validate() const;

  bool operator==(const JobSpec& other) const = default;
};

/// Parse one spec. Throws JobError naming the offending key on:
/// wrong/missing schema version, unknown key, type mismatch. Purely
/// structural — any structurally well-formed spec round-trips; semantic
/// checks are validate()'s job, run at admission (daemon) and before
/// execution (run_job).
JobSpec parse_job_spec(const std::string& json_text);

// JobReport field tables. The counters mirror KmsStats /
// RedundancyRemovalResult / AtpgStats / GovernorReport so a report
// carries the whole observability surface of the run it describes.
#define KMS_JOB_REPORT_STRING_FIELDS(X)                                     \
  X(kind, "")            /* job_kind_name of the spec                  */   \
  X(verdict, "")         /* "ok" | "degraded" | "error" | "rejected"   */   \
  X(error, "")           /* diagnostic when verdict is error/rejected  */   \
  X(loop_exit, "")       /* KmsStats::loop_exit                        */   \
  X(text, "")            /* formatted report body (stdout payload)     */   \
  X(output_blif, "")     /* result netlist (irr, when want_output)     */

#define KMS_JOB_REPORT_U64_FIELDS(X)                                        \
  X(input_digest, 0) X(output_digest, 0) /* FNV-1a over BLIF bytes */       \
  X(unknown_queries, 0)                                                     \
  X(gov_queries, 0) X(gov_unknown, 0) X(gov_conflicts, 0)                   \
  X(gov_propagations, 0)                                                    \
  X(iterations, 0) X(duplicated_gates, 0) X(constants_set, 0)               \
  X(redundancies_removed, 0)                                                \
  X(initial_gates, 0) X(final_gates, 0)                                     \
  X(initial_max_fanout, 0) X(final_max_fanout, 0)                           \
  X(removal_passes, 0) X(removal_sat_queries, 0)                            \
  X(removal_structural_shortcuts, 0)                                        \
  X(removal_sim_dropped, 0) X(removal_witness_dropped, 0)                   \
  X(removal_cache_hits, 0) X(removal_cache_invalidated, 0)                  \
  X(removal_sat_solves, 0) X(removal_cone_gates, 0)                         \
  X(removal_max_cone_gates, 0)                                              \
  X(sta_applies, 0) X(sta_rebuilds, 0) X(sta_gates_repaired, 0)             \
  X(sta_full_visits, 0)                                                     \
  X(spec_batches, 0) X(spec_solves, 0) X(spec_cache_hits, 0)                \
  X(spec_cache_insertions, 0) X(spec_cache_invalidated, 0)                  \
  X(steps_checked, 0) X(certificates_checked, 0) X(deletions_verified, 0)   \
  X(audit_faults, 0) X(audit_redundant, 0) X(audit_unknown, 0)              \
  X(audit_sat_conflicts, 0)                                                 \
  X(lint_errors, 0) X(lint_findings, 0)                                     \
  X(daemon_served, 0) X(daemon_cache_hits, 0) X(daemon_cache_entries, 0)    \
  X(daemon_rejected, 0) X(daemon_queued, 0) X(daemon_running, 0)

#define KMS_JOB_REPORT_F64_FIELDS(X)                                        \
  X(initial_topo_delay, 0.0) X(final_topo_delay, 0.0)                       \
  X(initial_computed_delay, 0.0) X(final_computed_delay, 0.0)               \
  X(removal_sim_seconds, 0.0) X(removal_sat_seconds, 0.0)                   \
  X(wall_seconds, 0.0)

#define KMS_JOB_REPORT_BOOL_FIELDS(X)                                       \
  X(cache_hit, false)    /* served from the daemon's digest cache      */   \
  X(degraded, false) X(deadline_hit, false) X(budget_exhausted, false)      \
  X(interrupted, false)                                                     \
  X(sta_incremental, false)                                                 \
  X(certified, false) X(certify_partial, false)

struct JobReport {
  std::string schema = kReportSchemaV2;
  int exit_code = 0;  ///< the kmscli exit-code contract: 0/1/2/3

#define KMS_DECL(name, dflt) std::string name = dflt;
  KMS_JOB_REPORT_STRING_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) std::uint64_t name = dflt;
  KMS_JOB_REPORT_U64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) double name = dflt;
  KMS_JOB_REPORT_F64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) bool name = dflt;
  KMS_JOB_REPORT_BOOL_FIELDS(KMS_DECL)
#undef KMS_DECL

  /// Structured diagnostics: one entry per checker/lint finding or
  /// degradation note, in emission order.
  std::vector<std::string> diagnostics;

  std::string to_json() const;

  bool operator==(const JobReport& other) const = default;
};

/// Parse one report (same strictness rules as parse_job_spec).
JobReport parse_job_report(const std::string& json_text);

/// FNV-1a fingerprint of everything that determines the report: the
/// payload digest plus every result-affecting option, i.e. the
/// canonical spec JSON with the payload replaced by its digest and the
/// client identity blanked. Two jobs with equal fingerprints produce
/// byte-identical reports (modulo wall_seconds/cache_hit), which is
/// what licenses the daemon's result cache.
std::uint64_t job_fingerprint(const JobSpec& spec,
                              std::uint64_t payload_digest);

}  // namespace kms::serve
