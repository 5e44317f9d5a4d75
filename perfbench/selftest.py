#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload end to end on a few
thousand events, untraced and traced, and checks the result line against
BENCHMARK.json. Then checks that the benchmark refuses to run, without
printing a result, when the program's sources are absent.

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, smoke=True):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)] + (["--smoke"] if smoke else [])
    t0 = time.time()
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return r, time.time() - t0


def check_result(workload, trace, r):
    assert r.returncode == 0, "%s trace=%d exited %d:\n%s" % (workload, trace, r.returncode, r.stderr[-3000:])
    lines = r.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res.keys()
    assert res["correct"] is True and res["failed"] == 0, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, res
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = res["metrics"]
    assert sorted(got) == sorted(want), "metric names differ: %s" % sorted(set(got) ^ set(want))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, (name, got[name]["unit"], unit)
        assert isinstance(got[name]["value"], (int, float)), (name, got[name])
        # every metric is also printed by name with its unit
        assert any(l.split()[:1] in ([name], ["(" + name]) and l.rstrip(" )").endswith(unit)
                   for l in lines), "%s not printed with its unit" % name
    record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
    assert record["checks_run"] >= 1, "output check did not run"
    for key in ("commit", "nproc", "jvm", "jvm_flags", "events", "seed", "jvm.gc_ms",
                "jvm.alloc_bytes_per_event"):
        assert key in record, "run record lacks %s" % key


def check_refusal():
    """In a directory holding only BENCHMARK.json and the benchmark's paths,
    the command must fail fast and print no result."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("target"))
    try:
        r, secs = run(bare, SPEC["workloads"][0]["name"], 0, smoke=False)
        assert r.returncode != 0, "ran without the program's sources"
        assert secs < 180, secs
        last = (r.stdout.strip().splitlines() or [""])[-1]
        assert '"metrics"' not in last, "printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for w in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            r, secs = run(ROOT, w, trace)
            check_result(w, trace, r)
            print("ok  %-20s trace=%d  %.0f s" % (w, trace, secs), flush=True)
    check_refusal()
    print("ok  refuses to run without the program's sources")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("FAIL", e)
        sys.exit(1)
