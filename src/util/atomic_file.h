#pragma once
// Atomic replace of a file under its final name.
//
// Used by every writer that commits a whole file at once (checkpoints,
// train/checkpoint.h). The bytes go to `<path>.tmp` beside the target,
// are fsync'd, and the temp file is renamed over the target; then the
// parent directory is fsync'd, because the rename is a directory-entry
// change that a crash could otherwise still lose. A crash at any point
// leaves either the old file or the new one, never a torn mixture.

#include <cstdio>
#include <functional>
#include <string>

namespace snnskip {

/// Replace `path` with the bytes `emit` writes into the temp file. Returns
/// false when `emit` returns false or any step fails; `*err` (when given)
/// then names the failing step. Up to the rename, a failure removes the
/// temp file and leaves `path` untouched.
bool atomic_write(const std::string& path,
                  const std::function<bool(std::FILE*)>& emit,
                  std::string* err = nullptr);

}  // namespace snnskip
