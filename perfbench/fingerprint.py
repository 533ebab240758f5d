#!/usr/bin/env python3
"""Host fingerprint for the benchmark README: nproc, the measured speedup of
4 spinning processes over one (2 s each), the kernel and the compiler.

    python3 perfbench/fingerprint.py

A host can report more CPUs than it delivers: the speedup is measured, not
read from nproc.
"""

import json
import multiprocessing
import os
import platform
import subprocess
import time

SPIN_PROCS = 4
SPIN_SECONDS = 2.0


def spin(seconds, out):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        for _ in range(1000):
            n += 1
    out.put(n)


def work(procs, seconds):
    q = multiprocessing.Queue()
    ps = [multiprocessing.Process(target=spin, args=(seconds, q))
          for _ in range(procs)]
    for p in ps:
        p.start()
    total = sum(q.get() for _ in ps)
    for p in ps:
        p.join()
    return total


def main():
    one = work(1, SPIN_SECONDS)
    many = work(SPIN_PROCS, SPIN_SECONDS)
    cxx = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True).stdout
    print(json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "spin_processes": SPIN_PROCS,
        "measured_speedup": round(many / one, 2),
        "kernel": platform.release(),
        "compiler": cxx.splitlines()[0] if cxx else "unknown",
    }))


if __name__ == "__main__":
    main()
