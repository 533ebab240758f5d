// perfbench_loadgen: drives a running tierbase_server over RESP from one
// thread and verifies every reply.
//
//   run mode:    preload every record (version 1), warm up, then the timed
//                phase; INFO before and after it (gets/sets deltas must
//                equal what was sent), INFO samples during it, the
//                server's CPU from /proc/<pid>/stat and its peak RSS; then
//                SHUTDOWN. Prints one JSON line with the raw results.
//   verify mode: after a restart on the same data directory, reads every
//                key back and requires its last acknowledged version.
//
// Flags are written by perfbench/run.py, which owns the workload table.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "checker.h"
#include "driver.h"
#include "report.h"
#include "workload.h"

using namespace perfbench;

namespace {

struct Flags {
  std::string mode = "run";
  int port = 0;
  int pid = 0;
  WorkloadSpec spec;
  int conns = 1;
  double rate = 0;
  double seconds = 10;
  double warmup = 1;
  uint64_t seed = 1;
  bool trace = false;
  uint64_t budget = 0;
  std::string state;
  std::string dir;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  auto num = [&](const char* k, double def) {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::strtod(it->second.c_str(), nullptr);
  };
  if (kv.count("mode")) f->mode = kv["mode"];
  if (kv.count("state")) f->state = kv["state"];
  if (kv.count("dir")) f->dir = kv["dir"];
  f->port = static_cast<int>(num("port", 0));
  f->pid = static_cast<int>(num("pid", 0));
  f->spec.records = static_cast<uint64_t>(num("records", 100000));
  f->spec.value_bytes = static_cast<size_t>(num("value-bytes", 100));
  f->spec.zipf_theta = num("zipf", 0.99);
  f->conns = static_cast<int>(num("conns", 1));
  f->rate = num("rate", 0);
  f->seconds = num("seconds", 10);
  f->warmup = num("warmup", 1);
  f->seed = static_cast<uint64_t>(num("seed", 1));
  f->trace = num("trace", 0) != 0;
  f->budget = static_cast<uint64_t>(num("budget", 0));
  return f->port > 0 && f->conns > 0 && f->spec.records > 0;
}

constexpr int kPreloadDepth = 64;
/// Every workload sends one request per connection at a time.
constexpr int kWorkloadDepth = 1;
/// Latency percentiles and throughput are taken per window; the run
/// reports their medians over the windows, which a passing stall moves
/// less than it moves a whole-run figure.
constexpr int64_t kWindowNs = 500'000'000;
/// INFO sampling interval: always on (the memory-budget check), and
/// faster in the traced windows of a traced run.
constexpr int64_t kInfoSlowNs = 250'000'000;
constexpr int64_t kInfoFastNs = 20'000'000;
/// The open-loop sender has fallen behind its schedule when its own p99
/// lateness exceeds this; such a run is refused.
constexpr double kMaxLateP99Us = 1000;

int Finish(JsonLine* out, const std::string& error) {
  out->Bool("ok", error.empty());
  if (!error.empty()) out->Str("error", error);
  printf("%s\n", out->Done().c_str());
  return error.empty() ? 0 : 1;
}

Driver::Source Sequential(uint64_t records, Op::Type type) {
  auto next = std::make_shared<uint64_t>(0);
  return [records, type, next](Op* op) {
    if (*next >= records) return false;
    op->type = type;
    op->key = static_cast<uint32_t>((*next)++);
    return true;
  };
}

struct InfoSnapshot {
  std::map<std::string, uint64_t> v;
  bool Read(const std::string& text) {
    static const char* kFields[] = {
        "gets", "sets", "total_commands_processed", "dispatch_batches",
        "coalesced_commands", "evicted_keys", "executor_scale_ups",
        "bytes_cached"};
    for (const char* f : kFields) {
      uint64_t x = 0;
      if (!InfoField(text, f, &x)) return false;
      v[f] = x;
    }
    return true;
  }
};

int RunMode(const Flags& f) {
  JsonLine out;
  Checker checker(f.spec.records, f.spec.value_bytes);
  DriverOptions options;
  options.conns = f.conns;
  options.depth = kPreloadDepth;
  options.control = true;
  Driver d(static_cast<uint16_t>(f.port), options, &checker);
  if (!d.ok()) return Finish(&out, d.error());

  // Preload: every record at version 1, pipelined.
  if (!d.Run(Sequential(f.spec.records, Op::kSet), INT64_MAX, nullptr)) {
    return Finish(&out, "preload: " + d.error());
  }
  std::string budget_error;
  auto check_budget = [&](uint64_t bytes_cached) {
    if (f.budget > 0 && bytes_cached > f.budget && budget_error.empty()) {
      budget_error = "bytes_cached " + std::to_string(bytes_cached) +
                     " exceeds the memory budget " +
                     std::to_string(f.budget);
    }
  };

  // Warm-up: the workload itself, checked but not recorded.
  OpStream stream(f.spec, f.seed);
  Driver::Source workload = [&stream](Op* op) {
    *op = stream.Next();
    return true;
  };
  d.Configure(kWorkloadDepth, f.rate);
  if (!d.Run(workload, NowNs() + static_cast<int64_t>(f.warmup * 1e9),
             nullptr)) {
    return Finish(&out, "warm-up: " + d.error());
  }
  out.Num("t_ready", NowNs() / 1e9);
  // DRAM held once the data is loaded and the cache warm. Later in a
  // tiered run the resident set can grow by about a quarter at a moment
  // that differs from run to run; the peak (VmHWM) is reported as well.
  const uint64_t ready_rss = RssBytes(f.pid, false);

  std::string text;
  InfoSnapshot before, after;
  if (!d.Info(&text) || !before.Read(text)) {
    return Finish(&out, "INFO before the timed phase: " + d.error());
  }
  check_budget(before.v["bytes_cached"]);
  const uint64_t gets0 = d.gets_sent(), sets0 = d.sets_sent();
  const uint64_t done0 = d.completed(), failed0 = d.failed();
  const double cpu0 = ProcessCpuSeconds(f.pid);

  // Timed phase. In a traced run odd windows sample INFO fast; the even
  // ones are the untraced reference for the tracing overhead.
  const int windows = static_cast<int>(std::ceil(f.seconds * 1e9 / kWindowNs));
  const int64_t t0 = NowNs();
  Recorder rec(t0, kWindowNs, windows);
  auto traced_window = [&](int64_t now) {
    return f.trace && ((now - t0) / kWindowNs) % 2 == 1;
  };
  double threads_sum = 0;
  uint64_t threads_samples = 0, info_samples = 0;
  // The data directory's size, sampled with INFO: it rises and falls with
  // each flush and compaction, so the phase's median is its disk cost.
  std::vector<double> disk_samples;
  auto interval = [&](int64_t now) {
    return traced_window(now) ? kInfoFastNs : kInfoSlowNs;
  };
  auto sink = [&](const std::string& info) {
    uint64_t x = 0;
    ++info_samples;
    if (InfoField(info, "active_threads", &x)) {
      threads_sum += static_cast<double>(x);
      ++threads_samples;
    }
    if (InfoField(info, "bytes_cached", &x)) check_budget(x);
    disk_samples.push_back(
        static_cast<double>(f.dir.empty() ? 0 : DirBytes(f.dir)));
  };
  if (!d.Run(workload, t0 + static_cast<int64_t>(f.seconds * 1e9), &rec,
             interval, sink)) {
    return Finish(&out, "timed phase: " + d.error());
  }
  const double cpu1 = ProcessCpuSeconds(f.pid);
  const double elapsed = (d.last_reply_ns() - t0) / 1e9;
  if (!d.Info(&text) || !after.Read(text)) {
    return Finish(&out, "INFO after the timed phase: " + d.error());
  }
  check_budget(after.v["bytes_cached"]);
  const uint64_t peak_rss = RssBytes(f.pid, true);

  const uint64_t gets = d.gets_sent() - gets0, sets = d.sets_sent() - sets0;
  const uint64_t done = d.completed() - done0;
  auto delta = [&](const char* k) { return after.v[k] - before.v[k]; };
  std::string error = budget_error;
  // No operation of any phase may fail: an error reply refuses the run.
  if (d.failed() > 0) {
    error = std::to_string(d.failed()) + " error replies";
  }
  if (delta("gets") != gets || delta("sets") != sets) {
    error = "INFO gets/sets deltas " + std::to_string(delta("gets")) + "/" +
            std::to_string(delta("sets")) + " differ from the " +
            std::to_string(gets) + "/" + std::to_string(sets) + " sent";
  }

  // Latency: per-window percentiles, then the median over windows.
  // by_parity[0] holds the even (untraced) windows, [1] the odd ones.
  std::vector<double> p50[2], p90[2], p99[2], tput, tput_by_parity[2],
      p50_by_parity[2];
  for (int w = 0; w < windows; ++w) {
    tput.push_back(rec.ops(w) * 1e9 / kWindowNs);
    tput_by_parity[w % 2].push_back(tput.back());
    for (int t = 0; t < 2; ++t) {
      std::vector<uint32_t>* lat = rec.latencies(w, static_cast<Op::Type>(t));
      if (lat->size() < 100) continue;
      p50[t].push_back(Percentile(lat, 0.50) / 1e3);
      p90[t].push_back(Percentile(lat, 0.90) / 1e3);
      p99[t].push_back(Percentile(lat, 0.99) / 1e3);
      if (t == Op::kGet) p50_by_parity[w % 2].push_back(p50[t].back());
    }
  }
  // Tracing overhead: a closed loop loses throughput in the traced
  // windows; an open loop (fixed throughput) gains GET latency instead.
  double trace_overhead = 0;
  if (f.rate > 0 && !p50_by_parity[0].empty() && !p50_by_parity[1].empty()) {
    trace_overhead = Median(p50_by_parity[1]) / Median(p50_by_parity[0]) - 1;
  } else if (f.rate <= 0 && windows > 1) {
    trace_overhead = 1 - Median(tput_by_parity[1]) / Median(tput_by_parity[0]);
  }
  if (disk_samples.empty()) error = "no INFO sample in the timed phase";
  if (p50[0].empty() || p50[1].empty()) {
    error = "too few samples per window for a latency percentile";
  }
  const double late_p99 = Percentile(rec.late(), 0.99) / 1e3;
  if (f.rate > 0 && late_p99 > kMaxLateP99Us) {
    error = "the open-loop sender fell behind its schedule (p99 " +
            std::to_string(late_p99) + " us late)";
  }

  if (!f.state.empty()) {
    std::ofstream state(f.state, std::ios::binary | std::ios::trunc);
    const auto& acked = checker.acked_versions();
    state.write(reinterpret_cast<const char*>(acked.data()),
                static_cast<std::streamsize>(acked.size() * sizeof(uint32_t)));
    if (!state) error = "cannot write " + f.state;
  }
  if (!d.Shutdown()) return Finish(&out, "SHUTDOWN: " + d.error());

  out.Num("attempted", static_cast<double>(gets + sets))
      .Num("failed", static_cast<double>(d.failed() - failed0))
      .Num("completed", static_cast<double>(done))
      // An open loop completes what it offers: its throughput is the rate
      // achieved over the whole phase, drain included.
      .Num("throughput_ops_s", f.rate > 0 ? done / elapsed : Median(tput))
      .Num("read_p50_us", Median(p50[Op::kGet]))
      .Num("read_p90_us", Median(p90[Op::kGet]))
      .Num("read_p99_us", Median(p99[Op::kGet]))
      .Num("update_p50_us", Median(p50[Op::kSet]))
      .Num("update_p90_us", Median(p90[Op::kSet]))
      .Num("update_p99_us", Median(p99[Op::kSet]))
      .Num("read_max_us", rec.max_ns(Op::kGet) / 1e3)
      .Num("server_cpu_s", cpu1 - cpu0)
      .Num("peak_rss_bytes", static_cast<double>(peak_rss))
      .Num("ready_rss_bytes", static_cast<double>(ready_rss))
      .Num("disk_bytes", disk_samples.empty() ? 0 : Median(disk_samples))
      .Num("late_p50_us", Percentile(rec.late(), 0.5) / 1e3)
      .Num("late_p99_us", late_p99)
      .Num("active_threads_mean",
           threads_samples ? threads_sum / threads_samples : 0)
      .Num("trace_overhead", trace_overhead);
  // INFO counts the INFO commands themselves; take them out.
  const double info_cmds = static_cast<double>(info_samples + 1);
  out.Num("info_commands", delta("total_commands_processed") - info_cmds)
      .Num("info_batches", delta("dispatch_batches") - info_cmds)
      .Num("info_coalesced", static_cast<double>(delta("coalesced_commands")))
      .Num("info_evicted", static_cast<double>(delta("evicted_keys")))
      .Num("info_scale_ups", static_cast<double>(delta("executor_scale_ups")));
  return Finish(&out, error);
}

int VerifyMode(const Flags& f) {
  JsonLine out;
  Checker checker(f.spec.records, f.spec.value_bytes);
  std::vector<uint32_t> acked(f.spec.records, 0);
  std::ifstream state(f.state, std::ios::binary);
  state.read(reinterpret_cast<char*>(acked.data()),
             static_cast<std::streamsize>(acked.size() * sizeof(uint32_t)));
  if (!state) return Finish(&out, "cannot read " + f.state);
  checker.LoadAcked(acked);
  DriverOptions options;
  options.conns = f.conns;
  options.depth = kPreloadDepth;
  options.control = true;
  Driver d(static_cast<uint16_t>(f.port), options, &checker);
  if (!d.Run(Sequential(f.spec.records, Op::kGet), INT64_MAX, nullptr)) {
    return Finish(&out, "restart check: " + d.error());
  }
  const uint64_t failed = d.failed();
  if (!d.Shutdown()) return Finish(&out, "SHUTDOWN: " + d.error());
  out.Num("verified", static_cast<double>(d.completed()))
      .Num("failed", static_cast<double>(failed));
  return Finish(&out, failed == 0 ? "" : "error replies in the restart check");
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    fprintf(stderr, "usage: %s --port N --pid N --records N ... (see run.py)\n",
            argv[0]);
    return 2;
  }
  if (f.mode == "verify") return VerifyMode(f);
  return RunMode(f);
}
