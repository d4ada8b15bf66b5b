#pragma once
// Network checkpointing: serialize parameters (and a WeightStore) to a
// simple self-describing binary format so long searches can be resumed and
// trained models shipped.
//
// Format (little-endian), crash-safe:
//   magic "SNNSKIP2" | u64 count | count x entry
//   entry: u32 name_len | name bytes | u32 ndim | i64 dims[ndim]
//          | u32 crc32(payload) | f32 data
//
// Writes go through atomic_write (util/atomic_file.h): `<path>.tmp` is
// fsync'd, renamed over the target, and the directory fsync'd, so a crash
// mid-write leaves the previous checkpoint intact.
// Loading validates every header field against the actual file size
// before allocating (a corrupted count/dims can no longer trigger huge
// allocations), verifies each tensor's CRC-32, and on ANY error returns
// false with `entries` cleared — a checkpoint is restored whole or not at
// all. Any other magic, the checksum-less "SNNSKIP1" included, fails as
// "bad magic": every restored tensor has passed its CRC.
//
// Loading matches entries to parameters BY NAME and checks shapes; extra
// entries in the file are ignored, missing parameters are reported.

#include <string>
#include <vector>

#include "graph/network.h"
#include "train/weight_store.h"

namespace snnskip {

/// One named tensor in a checkpoint file.
struct CheckpointEntry {
  std::string name;
  Tensor value;
};

/// Write entries to `path`. Returns false on I/O failure.
bool save_entries(const std::string& path,
                  const std::vector<CheckpointEntry>& entries);

/// Read all entries from `path`. Returns false on I/O or format error.
bool load_entries(const std::string& path,
                  std::vector<CheckpointEntry>& entries);

/// Save every parameter of `net` (names must be unique, which the model
/// builders guarantee).
bool save_network(const std::string& path, Network& net);

/// Load parameters into `net` by name. Returns the number of parameters
/// restored; parameters without a matching entry are left untouched.
/// Shape mismatches are skipped with a warning.
std::size_t load_network(const std::string& path, Network& net);

}  // namespace snnskip
