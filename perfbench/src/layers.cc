// perfbench_layers: the per-layer half of a traced run. It times calls
// into each layer's public functions from this file, on the workload's
// own inputs, and changes nothing inside the program:
//
//   server  the loopback floor (an echo server driven by the same driver),
//           the depth-1 round trip to an in-process server::Server with
//           the binary's default options, server::ParseRequests and
//           CommandTable::ExecuteBatch on the workload's request bytes;
//           the loop residual is what the round trip leaves after floor,
//           parse and command.
//   core /  TierBase Get/Set/MultiGet against the same calls on its own
//   cache   HashEngine (db->cache()), and TierBase Get with the workload
//           observatory on and off.
//   storage (write-back workloads) TierBase over a timing StorageAdapter
//           that wraps LsmStorageAdapter, replayed from one thread per
//           load connection, each on the keys its connection owns, so
//           misses can overlap as they can in the server: hit ratio, miss
//           latency against the storage read it waits for, keys per
//           fetch, write-back batch sizes and latencies, and the LSM's
//           own counters.
//
// Prints one JSON line of per-layer metrics. Flags come from run.py.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "driver.h"
#include "report.h"
#include "tierbase/server.h"
#include "tierbase/tierbase.h"
#include "workload.h"

using namespace perfbench;
using tierbase::Slice;
using tierbase::Status;
using tierbase::StorageAdapter;
using tierbase::TierBase;
using tierbase::TierBaseOptions;

namespace {

struct Flags {
  WorkloadSpec spec;
  int conns = 1;
  double rate = 0;
  std::string policy = "cache-only";
  uint64_t budget = 0;
  std::string dir;
  uint64_t seed = 1;
  double seconds = 1;  // Time per measured section.
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i] + 2] = argv[i + 1];
  if (argc % 2 != 1) return false;
  auto num = [&](const char* k, double def) {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::strtod(it->second.c_str(), nullptr);
  };
  f->spec.records = static_cast<uint64_t>(num("records", 100000));
  f->spec.value_bytes = static_cast<size_t>(num("value-bytes", 100));
  f->spec.zipf_theta = num("zipf", 0.99);
  f->conns = static_cast<int>(num("conns", 1));
  f->rate = num("rate", 0);
  f->budget = static_cast<uint64_t>(num("budget", 0));
  f->seed = static_cast<uint64_t>(num("seed", 1));
  f->seconds = num("section-seconds", 1);
  if (kv.count("policy")) f->policy = kv["policy"];
  if (kv.count("dir")) f->dir = kv["dir"];
  return !f->dir.empty() && f->conns > 0;
}

[[noreturn]] void Die(const std::string& why) {
  fprintf(stderr, "perfbench_layers: %s\n", why.c_str());
  exit(1);
}

/// Record index of a workload key ("user" + 12 digits).
uint32_t IndexOf(const Slice& key) {
  return static_cast<uint32_t>(
      std::strtoull(std::string(key.data() + 4, key.size() - 4).c_str(),
                    nullptr, 10));
}

/// StorageAdapter decorator that times every call into the storage tier
/// and counts the storage reads of each key.
class TimingAdapter : public StorageAdapter {
 public:
  TimingAdapter(StorageAdapter* inner, uint64_t records)
      : inner_(inner), key_reads_(records) {}

  std::string name() const override { return "timing+" + inner_->name(); }
  Status Write(const Slice& key, const Slice& value) override {
    const int64_t t = NowNs();
    Status s = inner_->Write(key, value);
    RecordWrite(t, 1);
    return s;
  }
  Status Delete(const Slice& key) override { return inner_->Delete(key); }
  Status Read(const Slice& key, std::string* value) override {
    const int64_t t = NowNs();
    Status s = inner_->Read(key, value);
    RecordRead(t, 1);
    CountRead(key);
    return s;
  }
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    const int64_t t = NowNs();
    Status s = inner_->WriteBatch(ops);
    RecordWrite(t, ops.size());
    return s;
  }
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override {
    const int64_t t = NowNs();
    Status s = inner_->MultiRead(keys, values, found);
    RecordRead(t, keys.size());
    for (const std::string& k : keys) CountRead(k);
    return s;
  }
  tierbase::UsageStats GetUsage() const override {
    return inner_->GetUsage();
  }
  Status WaitIdle() override { return inner_->WaitIdle(); }

  struct Calls {
    std::vector<uint32_t> read_ns, write_ns;
    uint64_t read_keys = 0, write_ops = 0;
  };
  /// Returns and clears what was recorded so far.
  Calls Take() {
    std::lock_guard<std::mutex> lock(mu_);
    Calls c = std::move(calls_);
    calls_ = Calls();
    return c;
  }
  /// Storage reads of record `index` so far (a miss of that key adds one).
  uint32_t reads_of(uint32_t index) const {
    return key_reads_[index].load(std::memory_order_acquire);
  }

 private:
  void RecordRead(int64_t start, size_t keys) {
    const int64_t ns = NowNs() - start;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.read_ns.push_back(static_cast<uint32_t>(ns));
    calls_.read_keys += keys;
  }
  void CountRead(const Slice& key) {
    key_reads_[IndexOf(key)].fetch_add(1, std::memory_order_release);
  }
  void RecordWrite(int64_t start, size_t ops) {
    const int64_t ns = NowNs() - start;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.write_ns.push_back(static_cast<uint32_t>(ns));
    calls_.write_ops += ops;
  }

  StorageAdapter* inner_;
  std::mutex mu_;
  Calls calls_;
  std::vector<std::atomic<uint32_t>> key_reads_;
};

/// The server binary's TierBase options for this workload.
TierBaseOptions BinaryOptions(const Flags& f, bool tiered) {
  TierBaseOptions o;
  o.cache.shards = 4;
  o.cache.memory_budget = tiered ? f.budget : 0;
  o.policy = tiered ? tierbase::CachingPolicy::kWriteBack
                    : tierbase::CachingPolicy::kCacheOnly;
  return o;
}

std::unique_ptr<tierbase::LsmStorageAdapter> OpenLsm(const std::string& dir) {
  tierbase::lsm::LsmOptions o;
  o.dir = dir;
  auto s = tierbase::LsmStorageAdapter::Open(o);
  if (!s.ok()) Die("LSM open: " + s.status().ToString());
  return std::move(*s);
}

std::unique_ptr<TierBase> OpenDb(const TierBaseOptions& o,
                                 StorageAdapter* storage) {
  auto db = TierBase::Open(o, storage);
  if (!db.ok()) Die("TierBase open: " + db.status().ToString());
  return std::move(*db);
}

/// Loads every record at version 1 in batches of 64, as the preload does.
void Preload(TierBase* db, const WorkloadSpec& spec, Checker* checker) {
  std::vector<std::string> keys, values;
  std::vector<Slice> ks, vs;
  std::vector<Status> st;
  for (uint64_t i = 0; i < spec.records; i += 64) {
    keys.clear();
    values.clear();
    for (uint64_t k = i; k < std::min<uint64_t>(i + 64, spec.records); ++k) {
      keys.push_back(KeyOf(k));
      values.push_back(ValueOf(k, 1, spec.value_bytes));
      if (checker != nullptr) {
        checker->NextWrite(static_cast<uint32_t>(k));
        checker->Ack(static_cast<uint32_t>(k), 1);
      }
    }
    ks.assign(keys.begin(), keys.end());
    vs.assign(values.begin(), values.end());
    db->MultiSet(ks, vs, &st);
    for (const Status& s : st) {
      if (!s.ok()) Die("preload: " + s.ToString());
    }
  }
}

double Elapsed(int64_t start) { return static_cast<double>(NowNs() - start); }

// --- server: floor, in-process round trip, parse, command. ---

void MeasureServer(const Flags& f, TierBase* db, Checker* checker,
                   JsonLine* out) {
  OpStream stream(f.spec, f.seed);
  Driver::Source source = [&stream](Op* op) {
    *op = stream.Next();
    return true;
  };

  // Round trips at depth 1, floor and in-process server in interleaved
  // rounds: an open-loop workload's rate and connections, otherwise one
  // connection in a closed loop (the bare round trip).
  double inproc_p50 = 0, floor_p50 = 0;
  {
    EchoServer echo;
    if (echo.port() == 0) Die("echo server did not start");
    tierbase::server::Server srv(db);
    Status s = srv.Start();
    if (!s.ok()) Die("in-process server: " + s.ToString());
    DriverOptions one;
    if (f.rate > 0) {
      one.conns = f.conns;
      one.rate = f.rate;
    }
    Checker echo_checker(f.spec.records, f.spec.value_bytes);
    DriverOptions echo_options = one;
    echo_options.echo = true;
    Driver floor(echo.port(), echo_options, &echo_checker);
    Driver inproc(srv.port(), one, checker);
    if (!floor.ok() || !inproc.ok()) Die("connect: " + floor.error() +
                                         inproc.error());
    constexpr int kRounds = 6;
    const int64_t slice = static_cast<int64_t>(f.seconds * 1e9 / kRounds);
    std::vector<double> floor_p, inproc_p;
    for (int r = 0; r < kRounds; ++r) {
      for (int side = 0; side < 2; ++side) {
        Driver& d = side == 0 ? floor : inproc;
        const int64_t t0 = NowNs();
        Recorder rec(t0, slice * 2, 1);
        if (!d.Run(source, t0 + slice, &rec)) Die("round trip: " + d.error());
        std::vector<uint32_t> all = *rec.latencies(0, Op::kGet);
        const auto* sets = rec.latencies(0, Op::kSet);
        all.insert(all.end(), sets->begin(), sets->end());
        (side == 0 ? floor_p : inproc_p).push_back(Percentile(&all, 0.5) / 1e3);
      }
    }
    floor_p50 = Median(floor_p);
    inproc_p50 = Median(inproc_p);
    srv.Stop();
  }

  // Parse and command on the workload's exact request bytes, one command
  // at a time as the workloads send them. Each round times fresh commands
  // from the stream, so a tiered workload's misses are not turned into
  // hits by replaying the same keys. The means are the metrics; the
  // medians are what a median round trip spends in parse and command (the
  // residual's terms).
  tierbase::server::CommandTable table(db);
  constexpr size_t kRoundBytes = 1 << 20;
  std::vector<uint32_t> parse_ns, command_ns;
  double parse_total = 0, command_total = 0;
  const int64_t until = NowNs() + static_cast<int64_t>(f.seconds * 0.5e9);
  std::string reply, error;
  for (int round = 0; round < 3 || NowNs() < until; ++round) {
    std::vector<std::string> bytes;
    size_t total = 0;
    while (total < kRoundBytes) {
      std::string request;
      const Op op = stream.Next();
      if (op.type == Op::kSet) {
        AppendSet(&request, op.key, 1, f.spec.value_bytes);
      } else {
        AppendGet(&request, op.key);
      }
      total += request.size();
      bytes.push_back(std::move(request));
    }
    std::vector<tierbase::server::RespCommand> parsed;
    for (const std::string& b : bytes) {
      parsed.clear();
      size_t consumed = 0;
      const int64_t t0 = NowNs();
      auto r = tierbase::server::ParseRequests(b.data(), b.size(), &parsed,
                                               &consumed, &error);
      const int64_t t1 = NowNs();
      if (r != tierbase::server::ParseResult::kOk || consumed != b.size()) {
        Die("ParseRequests refused the workload's bytes");
      }
      reply.clear();
      bool close_conn = false, shutdown = false;
      const int64_t t2 = NowNs();
      table.ExecuteBatch(parsed, &reply, &close_conn, &shutdown);
      const int64_t t3 = NowNs();
      parse_ns.push_back(static_cast<uint32_t>(t1 - t0));
      command_ns.push_back(static_cast<uint32_t>(t3 - t2));
      parse_total += t1 - t0;
      command_total += t3 - t2;
    }
  }
  const double cmds = static_cast<double>(parse_ns.size());

  out->Num("server.floor_rtt_p50_us", floor_p50)
      .Num("server.inproc_rtt_p50_us", inproc_p50)
      .Num("server.resp_parse_ns_per_cmd", parse_total / cmds)
      .Num("server.command_ns_per_cmd", command_total / cmds)
      .Num("server.loop_residual_us",
           inproc_p50 - floor_p50 -
               (Percentile(&parse_ns, 0.5) + Percentile(&command_ns, 0.5)) /
                   1e3);
}

// --- core / cache: the TierBase wrapper against its own HashEngine. ---

void MeasureCore(const Flags& f, JsonLine* out) {
  TierBaseOptions on = BinaryOptions(f, false);
  TierBaseOptions off = on;
  off.analytics.enabled = false;
  auto db_on = OpenDb(on, nullptr);
  auto db_off = OpenDb(off, nullptr);
  Preload(db_on.get(), f.spec, nullptr);
  Preload(db_off.get(), f.spec, nullptr);

  OpStream stream(f.spec, f.seed ^ 0x5eed);
  constexpr size_t kOps = 8192, kMulti = 32;
  std::vector<std::string> keys, values;
  for (size_t i = 0; i < kOps; ++i) {
    const Op op = stream.Next();
    keys.push_back(KeyOf(op.key));
    values.push_back(ValueOf(op.key, 1, f.spec.value_bytes));
  }
  std::vector<Slice> key_slices(keys.begin(), keys.end());
  std::vector<Slice> value_slices(values.begin(), values.end());

  std::string v;
  std::vector<std::string> mv;
  std::vector<Status> ms;
  auto gets = [&](tierbase::KvEngine* e) {
    for (const Slice& k : key_slices) {
      if (!e->Get(k, &v).ok()) Die("Get missed a loaded key");
    }
  };
  auto sets = [&](tierbase::KvEngine* e) {
    for (size_t i = 0; i < kOps; ++i) {
      if (!e->Set(key_slices[i], value_slices[i]).ok()) Die("Set failed");
    }
  };
  auto multigets = [&](tierbase::KvEngine* e) {
    std::vector<Slice> batch(kMulti);
    for (size_t i = 0; i + kMulti <= kOps; i += kMulti) {
      std::copy(key_slices.begin() + i, key_slices.begin() + i + kMulti,
                batch.begin());
      e->MultiGet(batch, &mv, &ms);
    }
  };
  struct Case {
    const char* name;
    std::function<void()> run;
    std::vector<double> ns;
  };
  std::vector<Case> cases = {
      {"core.tierbase_get_ns", [&] { gets(db_on.get()); }, {}},
      {"cache.hash_get_ns", [&] { gets(db_on->cache()); }, {}},
      {"noanalytics_get_ns", [&] { gets(db_off.get()); }, {}},
      {"core.tierbase_set_ns", [&] { sets(db_on.get()); }, {}},
      {"cache.hash_set_ns", [&] { sets(db_on->cache()); }, {}},
      {"core.tierbase_multiget_ns_per_key",
       [&] { multigets(db_on.get()); }, {}},
      {"cache.hash_multiget_ns_per_key",
       [&] { multigets(db_on->cache()); }, {}},
  };
  const int64_t until = NowNs() + static_cast<int64_t>(f.seconds * 1e9);
  for (int round = 0; round < 5 || NowNs() < until; ++round) {
    for (Case& c : cases) {
      c.run();  // Untimed pass: each case starts with its data in cache.
      const int64_t t = NowNs();
      c.run();
      c.ns.push_back(Elapsed(t) / kOps);
    }
  }
  std::map<std::string, double> m;
  for (Case& c : cases) m[c.name] = Median(c.ns);
  for (const auto& [name, ns] : m) {
    if (name != "noanalytics_get_ns") out->Num(name, ns);
  }
  out->Num("core.wrapper_get_ns",
           m["core.tierbase_get_ns"] - m["cache.hash_get_ns"]);
  out->Num("analytics.get_ns",
           m["core.tierbase_get_ns"] - m["noanalytics_get_ns"]);
}

// --- storage path: TierBase write-back over the timing adapter. ---

void MeasureStorage(const Flags& f, JsonLine* out) {
  auto lsm = OpenLsm(f.dir + "/storage-path");
  TimingAdapter timing(lsm.get(), f.spec.records);
  auto db = OpenDb(BinaryOptions(f, true), &timing);
  Checker checker(f.spec.records, f.spec.value_bytes);
  Preload(db.get(), f.spec, &checker);
  const uint64_t user_written =
      f.spec.records * (kKeyBytes + f.spec.value_bytes);
  timing.Take();
  const TierBase::Stats before = db->GetStats();

  // One replay thread per load connection, each on the operations whose
  // keys its connection owns (key % conns), as the server sees them: a
  // key's operations are ordered, and different keys' misses may overlap.
  // The checker's per-key state is touched by the key's own thread only.
  struct Replayer {
    std::vector<uint32_t> miss_ns, hit_ns;
    std::atomic<uint64_t> user_written{0};
    std::string error;
    std::thread thread;
  };
  std::vector<Replayer> replayers(static_cast<size_t>(f.conns));
  std::atomic<bool> stop{false};
  auto replay = [&](uint32_t owner, Replayer* r) {
    OpStream stream(f.spec, SplitMix64(f.seed) + owner);
    std::string v, why;
    while (!stop.load(std::memory_order_relaxed)) {
      const Op op = stream.Next();
      if (op.key % static_cast<uint32_t>(f.conns) != owner) continue;
      const std::string key = KeyOf(op.key);
      if (op.type == Op::kSet) {
        const uint32_t version = checker.NextWrite(op.key);
        Status s = db->Set(key, ValueOf(op.key, version, f.spec.value_bytes));
        if (!s.ok()) {
          r->error = "storage path Set: " + s.ToString();
          return;
        }
        checker.Ack(op.key, version);
        r->user_written.fetch_add(kKeyBytes + f.spec.value_bytes,
                                  std::memory_order_relaxed);
        continue;
      }
      const uint32_t reads = timing.reads_of(op.key);
      const int64_t t = NowNs();
      Status s = db->Get(key, &v);
      const uint32_t ns = static_cast<uint32_t>(NowNs() - t);
      const uint32_t want = checker.acked(op.key);
      if (!s.ok() || !checker.CheckGet(op.key, want, want, false, v.data(),
                                       v.size(), &why)) {
        r->error = "storage path Get: " + (s.ok() ? why : s.ToString());
        return;
      }
      (timing.reads_of(op.key) != reads ? r->miss_ns : r->hit_ns)
          .push_back(ns);
    }
  };
  // Write amplification, cumulative from the preload on: LSM bytes
  // written (flushed + compacted) per user byte written, midway through
  // the replay and at its end. Close values show it has levelled off.
  auto written = [&] {
    uint64_t total = user_written;
    for (const Replayer& r : replayers) {
      total += r.user_written.load(std::memory_order_relaxed);
    }
    return static_cast<double>(total);
  };
  for (size_t i = 0; i < replayers.size(); ++i) {
    replayers[i].thread =
        std::thread(replay, static_cast<uint32_t>(i), &replayers[i]);
  }
  const auto half = std::chrono::nanoseconds(
      static_cast<int64_t>(f.seconds * 4e9));
  std::this_thread::sleep_for(half);
  const auto midway = lsm->store()->GetStats();
  const double amp_midway =
      static_cast<double>(midway.bytes_flushed + midway.bytes_compacted) /
      written();
  std::this_thread::sleep_for(half);
  stop.store(true, std::memory_order_relaxed);
  std::vector<uint32_t> miss_ns, hit_ns;
  for (Replayer& r : replayers) {
    r.thread.join();
    if (!r.error.empty()) Die(r.error);
    miss_ns.insert(miss_ns.end(), r.miss_ns.begin(), r.miss_ns.end());
    hit_ns.insert(hit_ns.end(), r.hit_ns.begin(), r.hit_ns.end());
  }
  const TierBase::Stats after = db->GetStats();
  TimingAdapter::Calls calls = timing.Take();
  const uint64_t gets = after.gets - before.gets;
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);

  if (!db->WaitIdle().ok()) Die("write-back drain failed");
  const tierbase::lsm::LsmStore::Stats lsm_stats = lsm->store()->GetStats();
  const tierbase::UsageStats usage = lsm->GetUsage();
  const double live = static_cast<double>(f.spec.records) *
                      (kKeyBytes + f.spec.value_bytes);
  auto per = [](double a, double b) { return b > 0 ? a / b : 0; };

  out->Num("core.hit_ratio", per(hits, static_cast<double>(gets)))
      .Num("core.miss_get_p50_us", Percentile(&miss_ns, 0.5) / 1e3)
      .Num("core.hit_get_p50_us", Percentile(&hit_ns, 0.5) / 1e3)
      .Num("core.storage_read_p50_us", Percentile(&calls.read_ns, 0.5) / 1e3)
      .Num("core.storage_read_p99_us", Percentile(&calls.read_ns, 0.99) / 1e3)
      .Num("core.storage_read_max_us", Percentile(&calls.read_ns, 1.0) / 1e3)
      .Num("core.fetch_keys_per_call",
           per(calls.read_keys, calls.read_ns.size()))
      .Num("core.wb_ops_per_flush",
           per(calls.write_ops, calls.write_ns.size()))
      .Num("core.storage_write_p50_us",
           Percentile(&calls.write_ns, 0.5) / 1e3)
      .Num("core.storage_write_p99_us",
           Percentile(&calls.write_ns, 0.99) / 1e3)
      .Num("core.wb_backpressure_waits",
           static_cast<double>(after.write_back.backpressure_waits -
                               before.write_back.backpressure_waits))
      .Num("cache.bytes_per_user_byte", per(after.bytes_cached, live))
      .Num("lsm.write_amp",
           per(static_cast<double>(lsm_stats.bytes_flushed +
                                   lsm_stats.bytes_compacted),
               written()))
      .Num("lsm.write_amp_midway", amp_midway)
      .Num("lsm.space_amp", per(static_cast<double>(usage.disk_bytes), live))
      .Num("lsm.flushes", static_cast<double>(lsm_stats.flushes))
      .Num("lsm.compactions", static_cast<double>(lsm_stats.compactions))
      .Num("lsm.write_stalls", static_cast<double>(lsm_stats.write_stalls));
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    fprintf(stderr, "usage: %s --dir D [--policy P] ... (see run.py)\n",
            argv[0]);
    return 2;
  }
  const bool tiered = f.policy == "write-back";
  JsonLine out;

  // The server section runs over the workload's own configuration.
  std::unique_ptr<tierbase::LsmStorageAdapter> lsm;
  if (tiered) lsm = OpenLsm(f.dir + "/server");
  auto db = OpenDb(BinaryOptions(f, tiered), lsm.get());
  Checker checker(f.spec.records, f.spec.value_bytes);
  Preload(db.get(), f.spec, &checker);
  const double live = static_cast<double>(f.spec.records) *
                      (kKeyBytes + f.spec.value_bytes);
  if (!tiered) {
    out.Num("cache.bytes_per_user_byte", db->GetStats().bytes_cached / live);
  }
  MeasureServer(f, db.get(), &checker, &out);
  db.reset();
  lsm.reset();

  MeasureCore(f, &out);
  if (tiered) MeasureStorage(f, &out);
  printf("%s\n", out.Done().c_str());
  return 0;
}
