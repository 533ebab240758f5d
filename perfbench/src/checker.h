// The reply checker. Every write of a key carries the next version of that
// key and goes through one connection; every GET reply must be byte-exact
// for some version v of the key it asked for, with
//
//   acked-at-send <= v <= sent-at-reply
//
// where acked-at-send is the newest version whose SET was acknowledged
// before the GET was sent, and sent-at-reply the newest version sent
// before the reply arrived. A preloaded key never reads nil. After a
// restart the window closes to the last acknowledged version exactly.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Checker {
 public:
  Checker(uint64_t records, size_t value_bytes)
      : value_bytes_(value_bytes), sent_(records, 0), acked_(records, 0) {}

  size_t value_bytes() const { return value_bytes_; }

  /// Version the next SET of `key` carries (and records it as sent).
  uint32_t NextWrite(uint32_t key) { return ++sent_[key]; }
  void Ack(uint32_t key, uint32_t version) {
    if (version > acked_[key]) acked_[key] = version;
  }
  uint32_t sent(uint32_t key) const { return sent_[key]; }
  uint32_t acked(uint32_t key) const { return acked_[key]; }

  /// Checks one GET reply. `is_null` is a nil reply; otherwise `data`
  /// holds the bulk payload. On rejection *why says what was wrong.
  bool CheckGet(uint32_t key, uint32_t lo, uint32_t hi, bool is_null,
                const char* data, size_t len, std::string* why) const;

  /// The per-key acknowledged versions, for the restart check.
  const std::vector<uint32_t>& acked_versions() const { return acked_; }
  void LoadAcked(const std::vector<uint32_t>& acked) {
    acked_ = acked;
    sent_ = acked;
  }

 private:
  size_t value_bytes_;
  std::vector<uint32_t> sent_;
  std::vector<uint32_t> acked_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
