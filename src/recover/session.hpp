// Crash-safe durable sessions: journaling, checkpointing and resume.
//
// A durable session pairs one proof-carrying KMS run with an artifact
// directory and a write-ahead log (wal.log, src/recover/wal.hpp) so the
// run survives being killed at any instant:
//
//  * at create(): the raw input BLIF is persisted as source.blif and a
//    meta record (every option that affects the result) opens the log;
//  * at every engine commit point (one KMS loop iteration, one removal
//    pass — see recover::CommitSink in src/core/context.hpp): new DRAT
//    certificate files are written durably first, then the newly
//    journalled steps are appended as WAL records, then — every
//    checkpoint_every commits, and always at phase boundaries — a
//    checkpoint record (src/recover/checkpoint.hpp), then one fsync;
//  * at finalize(): journal.txt / input.blif / output.blif are written
//    (atomic rename), and only then a final record marks the session
//    complete. A directory whose log lacks a final record is a crashed
//    session.
//
// Resume (prepare_resume) inverts this: validate the log (torn tails
// truncated), re-parse source.blif, deterministically replay the
// journalled step prefix up to the last checkpoint — structural surgery
// only, no SAT, since every verdict is recorded — cross-check the
// replayed network's snapshot digest against the checkpoint, reload the
// persisted certificates, and hand the engine a KmsResumeState. Steps
// committed after the last checkpoint are discarded (the log is
// physically truncated at attach()) and regenerated by the continued
// run, which is bit-identical to an uninterrupted one at any job count
// because every engine decision downstream of the restored state is
// deterministic (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/context.hpp"
#include "src/core/kms.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/journal.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/wal.hpp"

namespace kms::recover {

/// Everything that parameterizes the run's result, persisted as the
/// log's first record so a resume reconstructs the exact configuration
/// (CLI flags on the resume command line cannot silently diverge).
struct SessionMeta {
  std::string model;
  std::string mode = "static";    ///< "static" | "viability"
  std::string order = "forward";  ///< removal scan order
  unsigned jobs = 1;
  std::uint64_t seed = 0;
  bool incremental = true;
  bool use_fault_sim = true;
  std::uint64_t random_words = 8;
  bool remove_remaining = true;
  std::uint64_t max_iterations = 0;
  std::uint64_t max_queries = 0;
  /// Commits between full checkpoints (phase boundaries always get
  /// one); 0 = checkpoint only at phase boundaries.
  std::uint64_t checkpoint_every = 8;
  std::uint64_t source_digest = 0;  ///< FNV-1a of the source.blif bytes
};

/// Capture the result-relevant options into a meta record.
SessionMeta make_meta(const std::string& model, const KmsOptions& opts,
                      unsigned jobs, std::uint64_t checkpoint_every,
                      std::uint64_t source_digest);

/// Apply a loaded meta record back onto fresh options (mode, caps, seed,
/// removal engine configuration; jobs stays the caller's choice — the
/// result is job-count invariant).
void apply_meta(const SessionMeta& meta, KmsOptions* opts);

std::string write_meta(const SessionMeta& meta);
SessionMeta read_meta(const std::string& text);

/// The committed state recovered from a crashed session's log.
struct ResumeInfo {
  SessionMeta meta;
  bool has_checkpoint = false;  ///< false: crashed before the first
                                ///< checkpoint — restart from scratch
  Checkpoint ckpt;              ///< last committed checkpoint, if any
  /// Journal steps the checkpoint covers (steps logged after it are
  /// already dropped here and physically truncated at attach()).
  std::vector<proof::JournalStep> steps;
  /// Log offset just past the last checkpoint (or the meta record):
  /// attach() truncates the WAL here.
  std::uint64_t wal_valid_bytes = 0;
  std::string source;  ///< raw source.blif bytes (digest-checked)
};

/// Read and validate a crashed session directory. Throws
/// std::runtime_error with a precise reason on: unreadable/corrupt log,
/// missing or digest-mismatched source.blif, malformed records, or a
/// session that already completed (nothing to resume).
ResumeInfo load_resume(const std::string& dir);

/// A crashed session replayed back to its last committed state, ready
/// to hand to kms_make_irredundant.
struct ResumeSetup {
  ResumeInfo info;
  BlifSequential model;          ///< network replayed to the checkpoint
  proof::ProofSession session;   ///< journal prefix + reloaded certificates
  std::string proof_input;       ///< input BLIF bytes the journal brackets
  KmsResumeState state;          ///< engine restart state (has_checkpoint)
};

/// load_resume + deterministic journal replay + snapshot-digest
/// cross-check + certificate reload. Throws std::runtime_error when the
/// replayed structure does not match the checkpoint (a tampered or
/// mismatched artifact directory must never silently "resume").
ResumeSetup prepare_resume(const std::string& dir);

/// The CommitSink implementation behind `kmscli irr --emit-proof`:
/// owns the WAL and the incremental persistence counters.
class DurableSession : public CommitSink {
 public:
  /// Start a fresh session: create `dir`, durably write source.blif,
  /// create wal.log and commit the meta record.
  static DurableSession create(const std::string& dir,
                               const SessionMeta& meta,
                               const std::string& source_bytes,
                               proof::ProofSession* session);

  /// Re-attach to a crashed session: truncate the log to the last
  /// checkpoint, delete certificate files and finalize artifacts from
  /// the discarded suffix, restore the persistence counters.
  static DurableSession attach(const std::string& dir,
                               const ResumeInfo& info,
                               proof::ProofSession* session);

  void commit(const CommitPoint& point) override;
  void checkpoint(const CommitPoint& point) override;

  /// Completion commit: remaining certificates + journal.txt +
  /// input.blif + output.blif (all durable), then the final record. The
  /// journal's output digest must already be set.
  void finalize(const std::string& input_blif,
                const std::string& output_blif);

  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }

 private:
  DurableSession(std::string dir, WalWriter wal,
                 proof::ProofSession* session,
                 std::uint64_t checkpoint_every);

  void persist_new_certificates();
  void flush_steps();
  void append_checkpoint(const CommitPoint& point);

  std::string dir_;
  WalWriter wal_;
  proof::ProofSession* session_;
  std::uint64_t checkpoint_every_;
  std::size_t persisted_steps_ = 0;
  std::size_t persisted_drat_ = 0;
  std::uint64_t commits_since_ckpt_ = 0;
  std::uint64_t checkpoints_taken_ = 0;
  /// Stats of the last commit point that carried KmsStats, so
  /// removal-phase checkpoints (which carry only the removal result)
  /// can be composed into a full snapshot.
  KmsStats last_kms_;
};

}  // namespace kms::recover
