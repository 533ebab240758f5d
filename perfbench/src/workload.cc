#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::string KeyOf(uint64_t index) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(index));
  return std::string(buf, kKeyBytes);
}

void AppendValue(std::string* out, uint64_t index, uint32_t version,
                 size_t bytes) {
  char head[48];
  int n = snprintf(head, sizeof(head), "%u:%llu:", version,
                   static_cast<unsigned long long>(index));
  const size_t begin = out->size();
  out->append(head, std::min(static_cast<size_t>(n), bytes));
  uint64_t state = SplitMix64(index * 0x100000001b3ull ^ version);
  while (out->size() - begin < bytes) {
    state = SplitMix64(state);
    for (int i = 0; i < 8 && out->size() - begin < bytes; ++i) {
      out->push_back(
          static_cast<char>('a' + ((state >> (8 * i)) & 0xff) % 26));
    }
  }
}

std::string ValueOf(uint64_t index, uint32_t version, size_t bytes) {
  std::string v;
  AppendValue(&v, index, version, bytes);
  return v;
}

bool ValueMatches(uint64_t index, uint32_t version, size_t bytes,
                  const char* data, size_t len) {
  thread_local std::string expected;
  expected.clear();
  AppendValue(&expected, index, version, bytes);
  return len == expected.size() && memcmp(data, expected.data(), len) == 0;
}

bool ParseVersion(const char* data, size_t len, uint32_t* version) {
  uint64_t v = 0;
  size_t i = 0;
  for (; i < len && i < 11 && data[i] >= '0' && data[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(data[i] - '0');
  }
  if (i == 0 || i >= len || data[i] != ':' || v > 0xffffffffull) return false;
  *version = static_cast<uint32_t>(v);
  return true;
}

Zipfian::Zipfian(uint64_t items, double theta)
    : items_(items), theta_(theta) {
  zetan_ = 0;
  for (uint64_t i = 1; i <= items; ++i) zetan_ += 1.0 / std::pow(i, theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / items, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

uint64_t Zipfian::Next(Rng* rng) const {
  const double u = rng->Uniform();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(items_ *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= items_) rank = items_ - 1;
  }
  return SplitMix64(rank) % items_;
}

namespace {

void AppendBulkHeader(std::string* out, size_t len) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + len % 10);
    len /= 10;
  } while (len > 0);
  out->push_back('$');
  while (n > 0) out->push_back(digits[--n]);
  out->append("\r\n", 2);
}

void AppendKey(std::string* out, uint64_t index) {
  char key[kKeyBytes];
  memcpy(key, "user", 4);
  for (size_t i = kKeyBytes; i > 4; --i) {
    key[i - 1] = static_cast<char>('0' + index % 10);
    index /= 10;
  }
  out->append("$16\r\n", 5);
  out->append(key, kKeyBytes);
  out->append("\r\n", 2);
}

}  // namespace

void AppendGet(std::string* out, uint64_t index) {
  out->append("*2\r\n$3\r\nGET\r\n", 13);
  AppendKey(out, index);
}

void AppendSet(std::string* out, uint64_t index, uint32_t version,
               size_t value_bytes) {
  out->append("*3\r\n$3\r\nSET\r\n", 13);
  AppendKey(out, index);
  AppendBulkHeader(out, value_bytes);
  AppendValue(out, index, version, value_bytes);
  out->append("\r\n", 2);
}

}  // namespace perfbench
