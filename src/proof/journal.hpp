// Transform journal: the machine-checkable record of a KMS run.
//
// Every transformation the pipeline performs on the way from the input
// netlist to the output netlist appends one step: a gate duplicated, a
// constant asserted, a path proven unsensitizable (with the DRAT
// certificate id backing the UNSAT verdict), a fault proven untestable
// (likewise), a redundancy deleted (citing the untestable step's proof),
// or a degradation event (an aborted solve). A standalone checker
// (kmsproof, src/proof/verify.hpp) replays the journal: each step is
// validated by a local inference rule — most importantly, a deletion is
// legal only when it cites a previously journalled untestable-fault step
// whose DRAT certificate verifies — and the journal's recorded end-state
// digest is cross-checked against the emitted netlist.
//
// A run in which any solve was stopped before a verdict must finalize
// the journal as PARTIAL; a journal that claims completeness while
// containing unknown-verdict steps is rejected by the checker.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/proof/drat.hpp"

namespace kms::proof {

struct JournalStep {
  enum class Kind : std::uint8_t {
    kDecompose,        ///< complex gates expanded to simple ones
    kPathUnsens,       ///< longest path proven unsensitizable (proof id)
    kPathGiveup,       ///< loop exit: path sat ("sat") or aborted ("unknown")
    kDuplicate,        ///< path prefix duplicated (count = gates copied)
    kConstant,         ///< first edge of P' set constant (count = conn id)
    kFaultUntestable,  ///< fault proven untestable (proof id)
    kFaultUnknown,     ///< ATPG query aborted; fault conservatively kept
    kDelete,           ///< redundancy removed (cites an untestable proof)
    kPartial,          ///< degradation marker (what = reason)
  };

  Kind kind;
  std::int64_t proof = -1;  ///< certificate id, -1 = none
  std::string what;         ///< fault/path description or reason
  std::uint64_t count = 0;  ///< kind-specific count (gates, conn id)
};

/// Stable text name of a step kind ("delete", "fault-untestable", ...).
const char* journal_kind_name(JournalStep::Kind k);

/// One step as its canonical journal line body — the text after "step "
/// in write()'s output, no trailing newline. The write-ahead log
/// (src/recover/) persists committed steps in exactly this form so a
/// resumed session rebuilds a byte-identical journal.
std::string format_step(const JournalStep& step);

/// Inverse of format_step (also accepts a leading "step " prefix).
/// Throws std::runtime_error on unknown kinds, bad quoting or unknown
/// fields — a corrupted record must never parse into a plausible step.
JournalStep parse_step(const std::string& text);

class TransformJournal {
 public:
  void set_model(std::string name) { model_ = std::move(name); }
  void set_input_digest(std::uint64_t d) { input_digest_ = d; }
  void set_output_digest(std::uint64_t d) { output_digest_ = d; }

  void add(JournalStep step);

  /// Convenience appenders used by the pipeline.
  void add_decompose(std::uint64_t gates);
  void add_path_unsens(std::string path, std::int64_t proof);
  void add_path_giveup(std::string reason);
  void add_duplicate(std::uint64_t gates);
  void add_constant(std::uint64_t conn);
  void add_fault_untestable(std::string fault, std::int64_t proof);
  void add_fault_unknown(std::string fault);
  void add_delete(std::string fault, std::int64_t proof);

  /// Record a degradation event; the journal finalizes as partial.
  void mark_partial(std::string reason);

  const std::string& model() const { return model_; }
  std::uint64_t input_digest() const { return input_digest_; }
  std::uint64_t output_digest() const { return output_digest_; }
  const std::vector<JournalStep>& steps() const { return steps_; }

  /// True when any step records an unproved verdict or a degradation.
  bool partial() const;

  void write(std::ostream& out) const;
  std::string to_text() const;

  /// Parse a journal written by write(). Throws std::runtime_error on
  /// malformed input (unknown kinds, bad quoting, missing header).
  static TransformJournal read(std::istream& in);

 private:
  std::string model_;
  std::uint64_t input_digest_ = 0;
  std::uint64_t output_digest_ = 0;
  std::vector<JournalStep> steps_;
};

/// Certificates plus journal for one audited pipeline run. Handed by
/// pointer through KmsOptions / RedundancyRemovalOptions; components
/// register certificates for each UNSAT verdict and journal every
/// transformation against them.
class ProofSession {
 public:
  TransformJournal journal;

  /// Register a certificate; returns its id for journal references.
  std::int64_t add_certificate(DratCertificate cert);

  const std::vector<DratCertificate>& certificates() const { return certs_; }

 private:
  std::vector<DratCertificate> certs_;
};

/// FNV-1a over bytes; used to tie the journal to the exact BLIF
/// serializations it brackets.
std::uint64_t digest_bytes(const std::string& bytes);

}  // namespace kms::proof
