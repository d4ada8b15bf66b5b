#include "util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

namespace snnskip {

bool atomic_write(const std::string& path,
                  const std::function<bool(std::FILE*)>& emit,
                  std::string* err) {
  auto fail = [err](std::string why) {
    if (err != nullptr) *err = std::move(why);
    return false;
  };
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return fail("cannot open " + tmp + " for writing");
  bool ok = emit(f) && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return fail("write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("rename " + tmp + " -> " + path + " failed");
  }
  const auto parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool synced = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!synced) return fail("fsync of directory " + dir + " failed");
  return true;
}

}  // namespace snnskip
