#include "train/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "fault/inject.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace snnskip {

namespace {
constexpr char kMagicV2[8] = {'S', 'N', 'N', 'S', 'K', 'I', 'P', '2'};

// Header sanity bounds: generous for real models, tight enough that a
// corrupted field cannot drive allocation sizes.
constexpr std::uint32_t kMaxNameLen = 1u << 20;
constexpr std::uint32_t kMaxNdim = 8;

template <typename T>
bool write_pod(std::FILE* f, const T& v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return in.good();
}

}  // namespace

bool save_entries(const std::string& path,
                  const std::vector<CheckpointEntry>& entries) {
  auto emit = [&entries](std::FILE* f) {
    if (std::fwrite(kMagicV2, sizeof(kMagicV2), 1, f) != 1) return false;
    if (!write_pod(f, static_cast<std::uint64_t>(entries.size()))) {
      return false;
    }
    for (const auto& e : entries) {
      if (!write_pod(f, static_cast<std::uint32_t>(e.name.size()))) {
        return false;
      }
      if (!e.name.empty() &&
          std::fwrite(e.name.data(), e.name.size(), 1, f) != 1) {
        return false;
      }
      const auto& dims = e.value.shape().dims();
      if (!write_pod(f, static_cast<std::uint32_t>(dims.size()))) {
        return false;
      }
      for (std::int64_t d : dims) {
        if (!write_pod(f, d)) return false;
      }
      const std::size_t bytes =
          sizeof(float) * static_cast<std::size_t>(e.value.numel());
      if (!write_pod(f, crc32(e.value.data(), bytes))) return false;
      if (bytes > 0 && std::fwrite(e.value.data(), bytes, 1, f) != 1) {
        return false;
      }
    }
    // Injected I/O error: fires after the payload, before the fsync.
    return !SNNSKIP_FAULT("checkpoint.write_fail");
  };
  std::string err;
  if (!atomic_write(path, emit, &err)) {
    SNNSKIP_LOG(Warn) << "checkpoint: " << err;
    return false;
  }
  if (SNNSKIP_FAULT("checkpoint.torn")) {
    // Injected torn write (fault tests): chop trailing bytes off the
    // final file, as a non-atomic filesystem could after a crash.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    const auto cut =
        static_cast<std::uintmax_t>(fault::payload("checkpoint.torn"));
    if (!ec && size > cut) std::filesystem::resize_file(path, size - cut, ec);
  }
  return true;
}

bool load_entries(const std::string& path,
                  std::vector<CheckpointEntry>& entries) {
  entries.clear();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SNNSKIP_LOG(Warn) << "checkpoint: cannot open " << path;
    return false;
  }
  in.seekg(0, std::ios::end);
  const std::int64_t file_size = static_cast<std::int64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  // Every claimed size is checked against the bytes actually left in the
  // file BEFORE any allocation: a corrupted header fails cleanly instead
  // of driving a multi-gigabyte resize. On any failure the partial
  // `loaded` vector is dropped, so callers never see a half checkpoint.
  auto fail = [&entries, &path](const char* why) {
    SNNSKIP_LOG(Warn) << "checkpoint: " << why << " in " << path;
    entries.clear();
    return false;
  };

  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in.good()) return fail("unreadable header");
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0) {
    return fail("bad magic");
  }

  std::uint64_t count = 0;
  if (!read_pod(in, count)) return fail("unreadable entry count");
  // Smallest possible entry: name_len + ndim + crc with no name, no dims,
  // no payload.
  const std::int64_t min_entry = 12;
  std::int64_t remaining = file_size - static_cast<std::int64_t>(in.tellg());
  if (count > static_cast<std::uint64_t>(remaining / min_entry)) {
    return fail("entry count exceeds file size");
  }

  std::vector<CheckpointEntry> loaded;
  loaded.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointEntry e;
    std::uint32_t name_len = 0;
    if (!read_pod(in, name_len)) return fail("truncated entry");
    remaining = file_size - static_cast<std::int64_t>(in.tellg());
    if (name_len > kMaxNameLen ||
        static_cast<std::int64_t>(name_len) > remaining) {
      return fail("name length exceeds file size");
    }
    e.name.resize(name_len);
    in.read(e.name.data(), name_len);
    std::uint32_t ndim = 0;
    if (!read_pod(in, ndim) || ndim > kMaxNdim) return fail("bad rank");
    remaining = file_size - static_cast<std::int64_t>(in.tellg());
    if (static_cast<std::int64_t>(ndim) * 8 > remaining) {
      return fail("dims exceed file size");
    }
    std::vector<std::int64_t> dims(ndim);
    // The payload that could possibly follow bounds every dimension and
    // the element product (also an overflow guard: numel stays below
    // file_size, far under int64 range).
    const std::int64_t max_elems =
        (remaining - static_cast<std::int64_t>(ndim) * 8) /
        static_cast<std::int64_t>(sizeof(float));
    std::int64_t numel = 1;
    for (auto& d : dims) {
      if (!read_pod(in, d) || d < 0) return fail("bad dimension");
      if (d > 0 && numel > max_elems / d) {
        return fail("tensor size exceeds file size");
      }
      numel *= d;
    }
    std::uint32_t stored_crc = 0;
    if (!read_pod(in, stored_crc)) return fail("truncated crc");
    remaining = file_size - static_cast<std::int64_t>(in.tellg());
    const std::int64_t payload =
        numel * static_cast<std::int64_t>(sizeof(float));
    if (payload > remaining) return fail("payload exceeds file size");

    Tensor value{Shape(dims)};
    in.read(reinterpret_cast<char*>(value.data()),
            static_cast<std::streamsize>(payload));
    if (!in.good()) return fail("truncated payload");
    if (crc32(value.data(), static_cast<std::size_t>(payload)) != stored_crc) {
      return fail("checksum mismatch");
    }
    e.value = std::move(value);
    loaded.push_back(std::move(e));
  }
  entries = std::move(loaded);
  return true;
}

bool save_network(const std::string& path, Network& net) {
  std::vector<CheckpointEntry> entries;
  for (Parameter* p : net.parameters()) {
    entries.push_back(CheckpointEntry{p->name, p->value});
  }
  // Batch-norm running statistics live outside parameters() but are part
  // of the model: an eval-mode forward is wrong without them.
  for (auto& [name, tensor] : net.buffers()) {
    entries.push_back(CheckpointEntry{name, *tensor});
  }
  return save_entries(path, entries);
}

std::size_t load_network(const std::string& path, Network& net) {
  std::vector<CheckpointEntry> entries;
  if (!load_entries(path, entries)) return 0;

  auto restore = [&entries](const std::string& name,
                            Tensor& target) -> bool {
    for (const auto& e : entries) {
      if (e.name != name) continue;
      if (e.value.shape() != target.shape()) {
        SNNSKIP_LOG(Warn) << "checkpoint: shape mismatch for " << name
                          << " (file " << e.value.shape().str() << " vs "
                          << target.shape().str() << "), skipped";
        return false;
      }
      target = e.value;
      return true;
    }
    return false;
  };

  std::size_t restored = 0;
  auto params = net.parameters();
  for (Parameter* p : params) {
    if (restore(p->name, p->value)) ++restored;
  }
  std::size_t buffers_restored = 0;
  auto buffers = net.buffers();
  for (auto& [name, tensor] : buffers) {
    if (restore(name, *tensor)) ++buffers_restored;
  }
  if (restored != params.size() || buffers_restored != buffers.size()) {
    SNNSKIP_LOG(Warn) << "checkpoint: restored " << restored << "/"
                      << params.size() << " parameters and "
                      << buffers_restored << "/" << buffers.size()
                      << " buffers from " << path;
  }
  return restored;
}

}  // namespace snnskip
