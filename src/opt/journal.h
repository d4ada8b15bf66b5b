#pragma once
// Append-only search journal (crash-safe resume for BO / random search).
//
// Every completed candidate evaluation is appended as one JSON Lines row
//
//   {"idx": 7, "code": [0, 2, 1], "value": 0.4375, "failed": 0}
//
// and flushed before the search continues, so a killed process loses at
// most the evaluation that was in flight. On restart the search replays
// the journal in place of the first N objective calls: because proposal
// randomness is reseeded per evaluation index (util/rng.h split streams),
// the replayed run walks the exact same trajectory — identical
// best_so_far — and then continues live from evaluation N.
//
// Values are printed with %.17g so the replayed doubles are bit-exact.
// A torn final line (kill mid-write) is detected by the parser and
// dropped; rows after the first unparsable line are ignored, keeping the
// replayed prefix contiguous.
//
// JournaledRounds is the one evaluation loop of BO and random search built
// on it: replay, live evaluation, the non-finite guard, append and the
// best-so-far bookkeeping.

#include <string>
#include <utility>
#include <vector>

#include "opt/bayes_opt.h"
#include "opt/encoding.h"
#include "util/json_writer.h"

namespace snnskip {

struct JournalEntry {
  std::size_t idx = 0;     ///< global evaluation index within the search
  EncodingVec code;
  double value = 0.0;
  bool failed = false;     ///< candidate was penalized, not measured
};

class SearchJournal {
 public:
  /// Empty path constructs a disabled journal (append is a no-op).
  explicit SearchJournal(const std::string& path) : writer_(path) {}

  bool enabled() const { return writer_.ok(); }

  /// Append one evaluation and flush it to the OS.
  void append(std::size_t idx, const EncodingVec& code, double value,
              bool failed);

  /// Parse a journal file into its contiguous valid prefix. Lines that
  /// fail to parse (torn tail) or whose idx breaks the 0,1,2,... sequence
  /// end the replayable prefix — and the file is truncated back to that
  /// prefix, so the resumed search appends onto a valid last line instead
  /// of concatenating into the torn fragment. A missing file yields an
  /// empty vector.
  static std::vector<JournalEntry> replay(const std::string& path);

  /// Cut the file back to its first `rows` lines.
  static void truncate(const std::string& path, std::size_t rows);

 private:
  JsonLinesWriter writer_;
};

/// Evaluates the proposed rounds of run_bayes_opt and run_random_search.
/// Each round's codes go through, in order:
///   1. the journal's replayable prefix: rows whose code matches the
///      proposal replay their recorded value. The first mismatch means the
///      journal came from a different problem or config, so the journal is
///      truncated there;
///   2. the live suffix: one observe_batch call when that hook is set,
///      else observe (or objective) per code;
///   3. the non-finite guard, one journal row per code, trace().record.
class JournaledRounds {
 public:
  /// An empty `journal_path` falls back to $SNNSKIP_JOURNAL, and empty
  /// again disables the journal. `problem` must outlive this object.
  JournaledRounds(const BoProblem& problem, const std::string& journal_path,
                  double nonfinite_penalty);

  void evaluate(const std::vector<EncodingVec>& codes);

  const SearchTrace& trace() const { return trace_; }
  SearchTrace take_trace() { return std::move(trace_); }

 private:
  const BoProblem& problem_;
  double nonfinite_penalty_;
  std::string path_;
  std::vector<JournalEntry> replay_;  ///< read before journal_ opens
  SearchJournal journal_;
  SearchTrace trace_;
};

}  // namespace snnskip
