// Self-test of the reply checker: every kind of wrong answer the benchmark
// must catch is fed to it and must be rejected, and the right answers must
// pass. run.py runs this before every benchmark run; a checker that lets a
// wrong answer through would make every "correct" it prints meaningless.

#include <cstdio>
#include <string>

#include "checker.h"
#include "driver.h"
#include "workload.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "checker self-test FAILED: %s\n", what);
    ++failures;
  }
}

bool Accepts(const Checker& c, uint32_t key, uint32_t lo, uint32_t hi,
             const std::string& value) {
  std::string why;
  return c.CheckGet(key, lo, hi, false, value.data(), value.size(), &why);
}

}  // namespace

int main() {
  constexpr size_t kValue = 100;
  Checker c(16, kValue);
  const uint32_t key = 7;
  c.NextWrite(key);  // Version 1, the preload.
  c.Ack(key, 1);
  c.NextWrite(key);  // Version 2, acknowledged.
  c.Ack(key, 2);
  c.NextWrite(key);  // Version 3, sent but not yet acknowledged.
  const uint32_t lo = c.acked(key), hi = c.sent(key);

  // Right answers: either version the window allows.
  Expect(Accepts(c, key, lo, hi, ValueOf(key, 2, kValue)),
         "accepts the acknowledged version");
  Expect(Accepts(c, key, lo, hi, ValueOf(key, 3, kValue)),
         "accepts the in-flight version");

  // A stale version: older than a write acknowledged before the GET.
  Expect(!Accepts(c, key, lo, hi, ValueOf(key, 1, kValue)),
         "rejects a stale version");
  // A version from the future: never sent.
  Expect(!Accepts(c, key, lo, hi, ValueOf(key, 4, kValue)),
         "rejects a version never written");

  // A torn value: the head of version 3, the tail of version 2.
  std::string torn = ValueOf(key, 3, kValue);
  const std::string other = ValueOf(key, 2, kValue);
  torn.replace(kValue / 2, kValue / 2, other.substr(kValue / 2));
  Expect(!Accepts(c, key, lo, hi, torn), "rejects a torn value");
  // A truncated value.
  Expect(!Accepts(c, key, lo, hi, ValueOf(key, 2, kValue).substr(0, 60)),
         "rejects a truncated value");

  // Another key's value, at a version the window allows.
  Expect(!Accepts(c, key, lo, hi, ValueOf(key + 1, 2, kValue)),
         "rejects another key's value");

  // Nil for a loaded key.
  std::string why;
  Expect(!c.CheckGet(key, lo, hi, true, nullptr, 0, &why),
         "rejects nil for a loaded key");

  // A write lost across the restart: the restart check closes the window
  // to the last acknowledged version.
  Checker restarted(16, kValue);
  std::vector<uint32_t> acked(16, 1);
  acked[key] = 5;
  restarted.LoadAcked(acked);
  const uint32_t v = restarted.acked(key);
  Expect(Accepts(restarted, key, v, restarted.sent(key),
                 ValueOf(key, 5, kValue)),
         "accepts the last acknowledged version after a restart");
  Expect(!Accepts(restarted, key, v, restarted.sent(key),
                  ValueOf(key, 4, kValue)),
         "rejects a write lost across the restart");

  // The reply framer: nil, bulk, partial and garbage.
  Reply r;
  Expect(ParseReply("$-1\r\n", 5, &r) == 5 && r.type == 'n', "parses nil");
  Expect(ParseReply("$3\r\nabc\r\n", 9, &r) == 9 && r.len == 3,
         "parses a bulk reply");
  Expect(ParseReply("$3\r\nab", 6, &r) == 0, "waits for a partial bulk");
  Expect(ParseReply("$3\r\nabcd\r\n", 10, &r) < 0,
         "rejects a bulk with the wrong length");

  if (failures == 0) printf("checker self-test: all cases passed\n");
  return failures == 0 ? 0 : 1;
}
