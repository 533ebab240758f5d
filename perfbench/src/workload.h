// Inputs of the repo benchmark: YCSB-style keys, values generated from
// (key, version) so every reply can be verified byte for byte, a scrambled
// zipfian key chooser, and the seeded operation stream. Everything here is
// a pure function of the workload parameters and the seed.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>

namespace perfbench {

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(SplitMix64(seed)) {}
  uint64_t Next() { return state_ = SplitMix64(state_); }
  /// Uniform in [0, 1).
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// "user" + 12 decimal digits: 16 bytes, as YCSB's key format.
std::string KeyOf(uint64_t index);
constexpr size_t kKeyBytes = 16;

/// The value written as `version` of key `index`: "<version>:<index>:"
/// followed by filler derived from (index, version), `bytes` long in all.
std::string ValueOf(uint64_t index, uint32_t version, size_t bytes);
void AppendValue(std::string* out, uint64_t index, uint32_t version,
                 size_t bytes);
/// True when data[0..len) is exactly ValueOf(index, version, bytes).
bool ValueMatches(uint64_t index, uint32_t version, size_t bytes,
                  const char* data, size_t len);

/// Parses the version a value claims; false when the header is malformed.
bool ParseVersion(const char* data, size_t len, uint32_t* version);

/// YCSB's scrambled zipfian chooser (Gray et al.): ranks follow a zipfian
/// law with constant `theta`, then a hash spreads the hot ranks over the
/// key space.
class Zipfian {
 public:
  Zipfian(uint64_t items, double theta);
  uint64_t Next(Rng* rng) const;

 private:
  uint64_t items_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

/// Both workloads are YCSB-A: half reads, half updates.
constexpr double kReadFraction = 0.5;

struct WorkloadSpec {
  uint64_t records = 100000;
  size_t value_bytes = 100;
  double zipf_theta = 0.99;
};

struct Op {
  enum Type : uint8_t { kGet, kSet };
  Type type = kGet;
  uint32_t key = 0;
};

/// The seeded operation stream: YCSB-A's read/update mix over zipfian
/// keys.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed), zipf_(spec.records, spec.zipf_theta) {}
  Op Next() {
    Op op;
    op.type = rng_.Uniform() < kReadFraction ? Op::kGet : Op::kSet;
    op.key = static_cast<uint32_t>(zipf_.Next(&rng_));
    return op;
  }

 private:
  WorkloadSpec spec_;
  Rng rng_;
  Zipfian zipf_;
};

/// RESP multibulk encodings of the two commands the workloads send.
void AppendGet(std::string* out, uint64_t index);
void AppendSet(std::string* out, uint64_t index, uint32_t version,
               size_t value_bytes);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
