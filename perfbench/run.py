#!/usr/bin/env python3
"""The repo benchmark: TierBase's cost-model metrics end to end over RESP.

    python3 perfbench/run.py --workload cache-depth1 --seed 1 \
        --seconds 10 --trace 0

Builds the program from source (the repo's own CMake build, driven from
perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR or .bench_build, boots
the built tierbase_server as a child process with its default flags except
those that define the workload, preloads and warms it up, drives the timed
phase from one client thread (perfbench_loadgen) and checks every reply.
With --trace 1 it also samples INFO during the run and times each layer's
public functions in-process (perfbench_layers) for the per-layer metrics.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics (end-to-end ones with --trace 0, per-layer ones with
--trace 1). See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

VALUE_BYTES = 100
KEY_BYTES = 16
ZIPF = 0.99
CACHE_RECORDS = 100_000
TIERED_RECORDS = 200_000
# The open-loop rate of cache-depth1: well below the ~150 kops/s a closed
# depth-1 loop reaches on the reference host.
DEPTH1_RATE = 20_000
LAYER_SECTION_S = 1.0


def nproc():
    return len(os.sched_getaffinity(0))


def load_connections():
    # One client thread, at most nproc connections in all: the load
    # connections plus one control connection for INFO and SHUTDOWN.
    return max(1, min(nproc(), 4) - 1)


def workloads():
    # Both are YCSB-A (half reads) at depth 1: perfbench_loadgen fixes those.
    # tiered-writeback runs one connection: its server runs about one active
    # executor worker, so on three connections GETs mostly queue behind
    # other connections' misses (10% more throughput at twice the GET p50),
    # and that queue moves with the host from run to run. Its warm-up is long enough for the hit
    # ratio to level off: the sequential preload leaves the cache holding
    # the last-loaded records, not the hot ones.
    tiered_user = TIERED_RECORDS * (KEY_BYTES + VALUE_BYTES)
    return {
        "cache-depth1": dict(records=CACHE_RECORDS, rate=DEPTH1_RATE,
                             policy="cache-only", budget=0,
                             conns=load_connections(), warmup=1.0),
        "tiered-writeback": dict(records=TIERED_RECORDS, rate=0,
                                 policy="write-back", budget=tiered_user // 4,
                                 conns=1, warmup=6.0),
    }


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(build_root):
    for need in ("CMakeLists.txt", "src", "include",
                 os.path.join("examples", "tierbase_server.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("the TierBase sources are missing (%s not found next to "
                "perfbench/); run from a full checkout" % need, 2)
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(min(nproc(), 4))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        r = subprocess.run(step, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            die("build failed: " + " ".join(step), 2)
    return {
        "server": os.path.join(cmake_dir, "tierbase", "tierbase_server"),
        "loadgen": os.path.join(cmake_dir, "perfbench_loadgen"),
        "layers": os.path.join(cmake_dir, "perfbench_layers"),
        "checker_test": os.path.join(cmake_dir, "perfbench_checker_test"),
    }


class Server:
    """One tierbase_server child; always stopped and reaped."""

    def __init__(self, binary, flags, run_dir, tag):
        self.port_file = os.path.join(run_dir, tag + ".port")
        self.log = open(os.path.join(run_dir, tag + ".log"), "w")
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--port-file", self.port_file] + flags,
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_port(self, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("tierbase_server exited at start (code %d)"
                                   % self.proc.returncode)
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    return self.port
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        raise RuntimeError("tierbase_server did not start listening")

    def wait_exit(self, timeout=60):
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError("tierbase_server did not exit after SHUTDOWN")
        if code != 0:
            raise RuntimeError("tierbase_server exited with code %d" % code)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def run_json(cmd, timeout):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)"
                           % (os.path.basename(cmd[0]), r.returncode))
    return json.loads(lines[-1])


def dir_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def workload_args(w, conns):
    return ["--records", str(w["records"]), "--value-bytes", str(VALUE_BYTES),
            "--zipf", str(ZIPF), "--conns", str(conns)]


def server_flags(w, data_dir):
    # Defaults everywhere else; the flush policy is stated on every run.
    flags = ["--policy", w["policy"], "--wal-sync", "interval"]
    if w["policy"] != "cache-only":
        flags += ["--dir", data_dir, "--memory-budget", str(w["budget"])]
    return flags


def run(args, bins, run_dir):
    w = workloads()[args.workload]
    if args.rate is not None:
        w["rate"] = args.rate
    conns = w["conns"]
    data_dir = os.path.join(run_dir, "data")
    state = os.path.join(run_dir, "acked.bin")
    flags = server_flags(w, data_dir)
    user_bytes = w["records"] * (KEY_BYTES + VALUE_BYTES)

    t_spawn = time.monotonic()
    server = Server(bins["server"], flags, run_dir, "server")
    try:
        server.wait_port()
        cmd = [bins["loadgen"], "--mode", "run", "--port", str(server.port),
               "--pid", str(server.proc.pid), "--seconds", str(args.seconds),
               "--warmup", str(w["warmup"]), "--seed", str(args.seed),
               "--trace", str(args.trace), "--rate", str(w["rate"]),
               "--budget", str(w["budget"]), "--state", state,
               "--dir", data_dir]
        res = run_json(cmd + workload_args(w, conns),
                       timeout=args.seconds + 120)
        if res.get("ok"):
            server.wait_exit()
    finally:
        server.stop()
    if not res.get("ok"):
        return res, None, None

    disk = dir_bytes(data_dir) if os.path.isdir(data_dir) else 0
    if w["policy"] != "cache-only":
        # Restart on the same directory: every key must read back its last
        # acknowledged version.
        server = Server(bins["server"], flags, run_dir, "restart")
        try:
            server.wait_port()
            cmd = [bins["loadgen"], "--mode", "verify", "--port",
                   str(server.port), "--pid", str(server.proc.pid),
                   "--state", state]
            ver = run_json(cmd + workload_args(w, conns), timeout=120)
            if ver.get("ok"):
                server.wait_exit()
        finally:
            server.stop()
        if not ver.get("ok"):
            res["ok"] = False
            res["error"] = ver.get("error", "restart check failed")
            return res, None, None

    e2e = {
        "setup_s": (res["t_ready"] - t_spawn, "s"),
        "throughput_ops_s": (res["throughput_ops_s"], "ops/s"),
        "read_p50_us": (res["read_p50_us"], "us"),
        "read_p90_us": (res["read_p90_us"], "us"),
        "update_p50_us": (res["update_p50_us"], "us"),
        "update_p90_us": (res["update_p90_us"], "us"),
        "server_cpu_us_per_op": (res["server_cpu_s"] * 1e6 / res["completed"],
                                 "us/op"),
        "dram_bytes_per_user_byte": (res["ready_rss_bytes"] / user_bytes,
                                     "ratio"),
        "space_bytes_per_user_byte": ((res["ready_rss_bytes"]
                                       + res["disk_bytes"]) / user_bytes,
                                      "ratio"),
    }
    layers = None
    if args.trace:
        layer_dir = os.path.join(run_dir, "layers")
        os.makedirs(layer_dir)
        cmd = [bins["layers"], "--policy", w["policy"], "--budget",
               str(w["budget"]), "--rate", str(w["rate"]), "--dir", layer_dir,
               "--seed", str(args.seed),
               "--section-seconds", str(LAYER_SECTION_S)]
        # The storage-path replay runs one thread per connection the
        # benchmark may open, also where the RESP run uses one, so that
        # different keys' misses can overlap and share a fetch.
        layers = run_json(cmd + workload_args(w, load_connections()),
                          timeout=150)
        layers.update(traced_from_run(res, disk, user_bytes))
    return res, e2e, layers


# Per-layer metrics: name -> unit. Metrics of the storage path and the LSM
# read 0 on the cache-only workloads, which have neither.
PER_LAYER = {
    "server.floor_rtt_p50_us": "us",
    "server.inproc_rtt_p50_us": "us",
    "server.resp_parse_ns_per_cmd": "ns",
    "server.command_ns_per_cmd": "ns",
    "server.loop_residual_us": "us",
    "server.cmds_per_batch": "count",
    "server.coalesced_ratio": "ratio",
    "threading.active_threads_mean": "count",
    "threading.scale_ups": "count",
    "core.tierbase_get_ns": "ns",
    "core.tierbase_set_ns": "ns",
    "core.tierbase_multiget_ns_per_key": "ns",
    "cache.hash_get_ns": "ns",
    "cache.hash_set_ns": "ns",
    "cache.hash_multiget_ns_per_key": "ns",
    "core.wrapper_get_ns": "ns",
    "analytics.get_ns": "ns",
    "cache.bytes_per_user_byte": "ratio",
    "cache.evictions_per_op": "ratio",
    "core.hit_ratio": "ratio",
    "core.miss_get_p50_us": "us",
    "core.hit_get_p50_us": "us",
    "core.storage_read_p50_us": "us",
    "core.storage_read_p99_us": "us",
    "core.storage_read_max_us": "us",
    "core.fetch_keys_per_call": "count",
    "core.wb_ops_per_flush": "count",
    "core.storage_write_p50_us": "us",
    "core.storage_write_p99_us": "us",
    "core.wb_backpressure_waits": "count",
    "lsm.write_amp": "ratio",
    "lsm.write_amp_midway": "ratio",
    "lsm.space_amp": "ratio",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
    "lsm.write_stalls": "count",
    "lsm.disk_bytes_per_user_byte": "ratio",
    "bench.generator_late_p99_us": "us",
    "bench.trace_overhead": "ratio",
    "bench.read_p99_us": "us",
    "bench.update_p99_us": "us",
    "bench.read_max_us": "us",
    "bench.peak_dram_bytes_per_user_byte": "ratio",
}


def traced_from_run(res, disk, user_bytes):
    """Per-layer metrics that come from the traced RESP run itself."""
    cmds = max(res["info_commands"], 1)
    return {
        "server.cmds_per_batch": cmds / max(res["info_batches"], 1),
        "server.coalesced_ratio": res["info_coalesced"] / cmds,
        "threading.active_threads_mean": res["active_threads_mean"],
        "threading.scale_ups": res["info_scale_ups"],
        "cache.evictions_per_op": res["info_evicted"] / max(res["attempted"], 1),
        "lsm.disk_bytes_per_user_byte": disk / user_bytes,
        "bench.generator_late_p99_us": res["late_p99_us"],
        "bench.trace_overhead": res["trace_overhead"],
        "bench.read_p99_us": res["read_p99_us"],
        "bench.update_p99_us": res["update_p99_us"],
        "bench.read_max_us": res["read_max_us"],
        "bench.peak_dram_bytes_per_user_byte":
            res["peak_rss_bytes"] / user_bytes,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads()))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rate", type=float, default=None,
                   help="override the open-loop rate (pacing study only)")
    args = p.parse_args()

    build_root = build_dir()
    bins = build(build_root)
    r = subprocess.run([bins["checker_test"]], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("the reply checker failed its self-test")

    run_dir = os.path.join(build_root, "runs",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        res, e2e, layers = run(args, bins, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        die(str(e))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not res.get("ok"):
        print("perfbench: " + res.get("error", "run failed"), file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": int(res.get("attempted", 1) or 1),
                          "failed": int(res.get("failed", 0)),
                          "metrics": {}}))
        sys.exit(1)

    if args.trace:
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": True, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
