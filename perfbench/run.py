#!/usr/bin/env python3
"""Run one workload of the CORE benchmark and print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload seq9_w100 --seed 1 --seconds 10 --trace 0

The first run in a checkout builds the program and the benchmark from source
with sbt (perfbench/build.sbt depends on the repo's own build); later runs
reuse the build while the sources are unchanged. Each run launches one JVM for
the workload, plus, with --trace 0, up to two more that only set the workload
up, so that `setup_s` is the median of up to three cold set-ups. The last
line of standard output is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it is the run record, which is also appended to
.bench_build/records.jsonl.

--smoke runs the workload on small inputs; selftest.py uses it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ".bench_build"  # relative to ROOT; every file the benchmark writes is under it
WORKLOADS = ["seq9_w100", "seq3_w200_nomatch", "stock_q1_q6", "stream_q6"]

# Identical for every run and workload, so that a change in GC behaviour can
# be told apart from a change in the code. Serial GC copies objects in a fixed
# order and -Xbatch compiles in the foreground, so two runs of the same code
# get the same object layout and the same compiled code; with a parallel GC
# and background compilation, runs of one seed differed by up to 1.7x.
JVM_FLAGS = [
    "-Xms2g", "-Xmx2g", "-XX:+UseSerialGC", "-Xbatch", "-XX:-UsePerfData",
    "-Djava.io.tmpdir=" + WORK + "/tmp",
    "-Dspark.driver.host=127.0.0.1",
]
# Cold set-ups per run: up to three, while they take less than this in total
# (one Spark set-up alone takes longer).
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 10
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Inputs of the build: a change to any of them triggers a rebuild.
SOURCES = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt",
           "perfbench/project", "perfbench/src"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        p = ROOT / top
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file() and "target" not in f.relative_to(ROOT).parts)
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build(digest):
    """Compiles program and benchmark with sbt unless this source state is built."""
    stamp = ROOT / WORK / "build.stamp"
    classpath = ROOT / WORK / "classpath.txt"
    if classpath.exists() and stamp.exists() and stamp.read_text() == digest:
        return classpath.read_text().strip()
    (ROOT / WORK).mkdir(exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    # sbt's own scratch files (global base, temp files) stay in the checkout too.
    work = ROOT / WORK
    (work / "tmp").mkdir(exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=%s" % (work / "sbt-global"), "-Djava.io.tmpdir=%s" % (work / "tmp"),
           "-Djna.tmpdir=%s" % (work / "tmp"), "-J-XX:-UsePerfData", "compile", "writeClasspath"]
    t0 = time.time()
    try:
        r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not classpath.exists():
        fail("build failed (sbt exit %d)" % r.returncode)
    print("perfbench: built in %.0f s" % (time.time() - t0), file=sys.stderr)
    stamp.write_text(digest)
    return classpath.read_text().strip()


def launch(classpath, args, deadline, on_line=None):
    """Runs one benchmark JVM. Returns (seconds from launch to READY, lines after READY)."""
    cmd = ["java"] + JVM_FLAGS + ["-cp", classpath, "perfbench.Main"] + args + ["--work-dir", WORK]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - t0), p.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in p.stdout:
            line = line.rstrip("\n")
            if ready is None and line == "READY":
                ready = time.perf_counter() - t0
            elif ready is not None:
                lines.append(line)
                if on_line:
                    on_line(line)
        p.wait()
    finally:
        watchdog.cancel()
        p.stdout.close()
    if time.perf_counter() >= deadline:
        fail("run exceeded its time limit")
    if p.returncode != 0 or ready is None:
        fail("benchmark JVM exited with %d" % p.returncode)
    return ready, lines


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny event counts (self-test)")
    a = ap.parse_args()
    start = time.perf_counter()
    deadline = start + RUN_TIMEOUT_S

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail("program sources not found next to %s" % BENCH.name)
    digest = source_digest()
    classpath = build(digest)
    deadline = max(deadline, time.perf_counter() + RUN_TIMEOUT_S)

    jargs = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
             "--trace", str(a.trace)] + (["--smoke"] if a.smoke else [])
    ready, lines = launch(classpath, jargs, deadline,
                          on_line=lambda l: None if l.startswith(("RESULT ", "RECORD ")) else print(l))
    setups = [ready]
    while a.trace == 0 and len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
        setups.append(launch(classpath, jargs + ["--setup-only"], deadline)[0])

    result = next((json.loads(l[7:]) for l in lines if l.startswith("RESULT ")), None)
    record = next((json.loads(l[7:]) for l in lines if l.startswith("RECORD ")), None)
    if result is None or record is None:
        fail("benchmark JVM printed no result")
    setup_s = statistics.median(setups)
    if a.trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print("  setup: %d cold set-ups, %s s" % (len(setups), ", ".join("%.3f" % s for s in setups)))
        print("  %-28s %s s" % ("setup_s", setup_s))
    record.update({"commit": commit(), "source_sha256": digest,
                   "setup_samples_s": setups, "wall_s": time.perf_counter() - start,
                   "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})
    with open(ROOT / WORK / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print("record: " + json.dumps(record))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
