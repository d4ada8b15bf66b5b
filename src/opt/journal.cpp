#include "opt/journal.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "telemetry/telemetry.h"
#include "util/logging.h"
#include "util/runtime_env.h"

namespace snnskip {

namespace {

// Minimal field extraction for the fixed journal row shape. The rows are
// machine-written by JsonLinesWriter, so this only needs to be strict
// enough to reject a torn tail, not to parse arbitrary JSON.

bool find_key(const std::string& line, const char* key, std::size_t& pos) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  pos = at + needle.size();
  return true;
}

bool parse_number(const std::string& line, std::size_t pos, double& out) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
  const char* start = line.c_str() + pos;
  char* end = nullptr;
  out = std::strtod(start, &end);
  return end != start;
}

bool parse_int_array(const std::string& line, std::size_t pos,
                     std::vector<int>& out) {
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size() || line[pos] != '[') return false;
  ++pos;
  out.clear();
  while (pos < line.size()) {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == ',')) {
      ++pos;
    }
    if (pos >= line.size()) return false;
    if (line[pos] == ']') return true;
    const char* start = line.c_str() + pos;
    char* end = nullptr;
    const long v = std::strtol(start, &end, 10);
    if (end == start) return false;
    out.push_back(static_cast<int>(v));
    pos = static_cast<std::size_t>(end - line.c_str());
  }
  return false;
}

bool parse_entry(const std::string& line, JournalEntry& e) {
  std::size_t pos = 0;
  double num = 0.0;
  if (!find_key(line, "idx", pos) || !parse_number(line, pos, num) ||
      num < 0) {
    return false;
  }
  e.idx = static_cast<std::size_t>(num);
  if (!find_key(line, "code", pos) || !parse_int_array(line, pos, e.code)) {
    return false;
  }
  if (!find_key(line, "value", pos) || !parse_number(line, pos, e.value)) {
    return false;
  }
  if (!find_key(line, "failed", pos) || !parse_number(line, pos, num)) {
    return false;
  }
  e.failed = num != 0.0;
  // A torn line can still parse if the cut landed after "failed"; require
  // the closing brace as an end-of-row marker.
  return line.find('}') != std::string::npos;
}

}  // namespace

void SearchJournal::append(std::size_t idx, const EncodingVec& code,
                           double value, bool failed) {
  if (!writer_.ok()) return;
  writer_.begin_row();
  writer_.field("idx", static_cast<std::int64_t>(idx));
  writer_.field("code", code);
  writer_.field("value", value);
  writer_.field("failed", static_cast<std::int64_t>(failed ? 1 : 0));
  writer_.end_row();
}

std::vector<JournalEntry> SearchJournal::replay(const std::string& path) {
  std::vector<JournalEntry> entries;
  if (path.empty()) return entries;
  std::uintmax_t valid_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return entries;
    std::string line;
    while (std::getline(in, line)) {
      JournalEntry e;
      if (!parse_entry(line, e) || e.idx != entries.size()) {
        SNNSKIP_LOG(Warn) << "journal: stopping replay of " << path
                          << " at line " << entries.size() + 1
                          << " (torn or out-of-sequence row)";
        break;
      }
      // Every writer-produced line ends in '\n', so the consumed bytes of
      // a good row are exactly line + newline.
      valid_bytes += line.size() + 1;
      entries.push_back(std::move(e));
    }
  }
  // Drop any trailing junk so the resumed search appends after the last
  // GOOD line rather than concatenating onto a torn fragment (which would
  // poison the row written now for the NEXT restart).
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec && size > valid_bytes) {
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (!ec) {
      SNNSKIP_LOG(Warn) << "journal: truncated " << size - valid_bytes
                        << " torn trailing bytes from " << path;
    }
  }
  if (!entries.empty()) {
    SNNSKIP_LOG(Info) << "journal: replaying " << entries.size()
                      << " evaluations from " << path;
  }
  return entries;
}

void SearchJournal::truncate(const std::string& path, std::size_t rows) {
  std::uintmax_t bytes = 0;
  {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    for (std::size_t r = 0; r < rows && std::getline(in, line); ++r) {
      bytes += line.size() + 1;
    }
  }
  std::error_code ec;
  std::filesystem::resize_file(path, bytes, ec);
}

JournaledRounds::JournaledRounds(const BoProblem& problem,
                                 const std::string& journal_path,
                                 double nonfinite_penalty)
    : problem_(problem),
      nonfinite_penalty_(nonfinite_penalty),
      path_(journal_path.empty() ? env::get_string("SNNSKIP_JOURNAL", "")
                                 : journal_path),
      replay_(SearchJournal::replay(path_)),
      journal_(path_) {}

void JournaledRounds::evaluate(const std::vector<EncodingVec>& codes) {
  std::size_t i = 0;
  for (; i < codes.size() && trace_.observations.size() < replay_.size();
       ++i) {
    const std::size_t idx = trace_.observations.size();
    if (replay_[idx].code != codes[i]) {
      SNNSKIP_LOG(Warn) << "journal: proposal mismatch at evaluation " << idx
                        << ", discarding the remaining journal";
      replay_.resize(idx);
      SearchJournal::truncate(path_, idx);
      break;
    }
    ++trace_.replayed;
    const JournalEntry& row = replay_[idx];
    trace_.record(Observation{codes[i], row.value, row.failed});
  }
  if (i == codes.size()) return;

  const std::size_t start = trace_.observations.size();
  const std::vector<EncodingVec> live(
      codes.begin() + static_cast<std::ptrdiff_t>(i), codes.end());
  std::vector<Observation> batch;
  if (problem_.observe_batch) batch = problem_.observe_batch(start, live);
  for (std::size_t j = 0; j < live.size(); ++j) {
    Observation obs;
    if (problem_.observe_batch) {
      if (j < batch.size()) obs = std::move(batch[j]);
    } else if (problem_.observe) {
      obs = problem_.observe(live[j]);
    } else {
      obs.value = problem_.objective(live[j]);
    }
    obs.code = live[j];
    if (!std::isfinite(obs.value)) {
      // Last-resort guard: the GP's Cholesky cannot digest NaN/Inf targets,
      // and one poisoned row would invalidate every later proposal.
      SNNSKIP_LOG(Warn) << "search: non-finite objective penalized to "
                        << nonfinite_penalty_;
      Telemetry::count("bo.nonfinite_values");
      obs.value = nonfinite_penalty_;
      obs.failed = true;
    }
    journal_.append(start + j, obs.code, obs.value, obs.failed);
    trace_.record(std::move(obs));
  }
}

}  // namespace snnskip
