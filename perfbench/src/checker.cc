#include "checker.h"

#include "workload.h"

namespace perfbench {

bool Checker::CheckGet(uint32_t key, uint32_t lo, uint32_t hi, bool is_null,
                       const char* data, size_t len, std::string* why) const {
  if (is_null) {
    *why = "nil for loaded key " + std::to_string(key);
    return false;
  }
  uint32_t version = 0;
  if (!ParseVersion(data, len, &version)) {
    *why = "unparseable value for key " + std::to_string(key);
    return false;
  }
  if (version < lo || version > hi) {
    *why = "key " + std::to_string(key) + " read version " + std::to_string(version) +
           " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]";
    return false;
  }
  if (!ValueMatches(key, version, value_bytes_, data, len)) {
    *why = "key " + std::to_string(key) + " value is not byte-exact for version " +
           std::to_string(version);
    return false;
  }
  return true;
}

}  // namespace perfbench
