#include <cstdio>
#include <fstream>
#include <sstream>

#include "tensor/cpu_features.h"
#include "tune/tune.h"
#include "util/atomic_file.h"

namespace snnskip::tune {

TuningProfile assemble_profile(const std::vector<Family>& fams,
                               const std::vector<FamilyResult>& results,
                               const std::string& id) {
  TuningProfile p;
  p.id = id;
  p.cpu_signature = cpu_signature();
  // Start from whatever is currently installed (the greedy pass left every
  // winner applied), then let each family write its own fields explicitly.
  p.config = kernel_config();
  for (std::size_t i = 0; i < fams.size() && i < results.size(); ++i) {
    fams[i].commit(results[i].best_code, &p);
  }
  return p;
}

bool write_profile(const TuningProfile& p, const std::string& path,
                   std::string* err) {
  const std::string text = serialize_tuning_profile(p);

  // A profile that the loader would reject must never reach disk under the
  // final name: validate the exact bytes we are about to commit.
  {
    TuningProfile check;
    std::string perr;
    if (!parse_tuning_profile(text, &check, &perr)) {
      if (err) *err = "self-check failed before write: " + perr;
      return false;
    }
  }

  auto emit = [&text](std::FILE* f) {
    return std::fwrite(text.data(), 1, text.size(), f) == text.size();
  };
  if (!atomic_write(path, emit, err)) return false;

  // Re-read the committed file and re-parse: catches torn writes and any
  // serialize/parse drift at the point of creation rather than at load.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  TuningProfile check;
  std::string perr;
  if (!in || !parse_tuning_profile(buf.str(), &check, &perr)) {
    if (err) *err = "post-write validation of " + path + " failed: " + perr;
    return false;
  }
  return true;
}

}  // namespace snnskip::tune
