#!/usr/bin/env python3
"""Self-test of the benchmark: unit tests plus a tiny run of every workload.

    python3 perfbench/selftest.py [--seconds 2]

Run it from the repository root. For each workload it makes one untraced
and one traced run and checks: the result line's schema against
BENCHMARK.json, correct == true and failed == 0, a well-formed span tree
(every parent exists, belongs to the same op and comes first; every
layer's median self time is >= 0), and the sanity ranges README.md states.
Exits non-zero on the first failure.
"""

import argparse
import csv
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, seconds, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}:\n{p.stdout[-3000:]}\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_schema(workload, trace, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            fail(f"{workload}: metric {name} is {m}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(f"{workload}: metric {name} has value {v!r}")
        if not trace and v <= 0:
            fail(f"{workload}: end-to-end metric {name} is {v}")


def check_spans(workload):
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()
    path = target / "perfbench" / f"spans-{workload}.csv"
    with open(path) as f:
        rows = list(csv.DictReader(f))
    if not rows:
        fail(f"{workload}: no spans in {path}")
    spans = {}
    child_ns = {}
    for r in rows:
        sid = int(r["id"])
        start, end = int(r["start_ns"]), int(r["end_ns"])
        if end < start:
            fail(f"{workload}: span {sid} ends before it starts")
        if r["parent"]:
            pid = int(r["parent"])
            if pid not in spans:
                fail(f"{workload}: span {sid} has no parent {pid} before it")
            if spans[pid]["op"] != r["op"]:
                fail(f"{workload}: span {sid} and its parent {pid} are different ops")
            child_ns[pid] = child_ns.get(pid, 0) + end - start
        spans[sid] = {"name": r["name"], "op": r["op"], "dur": end - start}
    parents = {spans[int(r["parent"])]["name"] for r in rows if r["parent"]}
    own = {}
    for sid, s in spans.items():
        if sid in child_ns or s["name"] not in parents:
            own.setdefault(s["name"], []).append(s["dur"] - child_ns.get(sid, 0))
    for name, v in own.items():
        if statistics.median(v) < 0:
            fail(f"{workload}: layer {name} has negative median self time")
    names = {s["name"] for s in spans.values()}
    for layer in ("server", "store", "engine.read", "tree.verify", "crypto.mac", "ecc.decode"):
        if layer not in names:
            fail(f"{workload}: no {layer} spans")
    return len(rows)


def check_sanity(workload, metrics):
    v = {k: m["value"] for k, m in metrics.items()}
    hit = v["tree.counter_cache_hit_rate"]
    if workload == "cold_read" and not hit < 0.3:
        fail(f"cold_read counter-cache hit rate {hit} should be about 0.1")
    if workload == "wire_hot" and not hit >= 0.99:
        fail(f"wire_hot counter-cache hit rate {hit} should be >= 0.99")
    reenc = v["counters.reencryptions_per_kwrite"]
    if (workload == "durable_skew") != (reenc > 0):
        fail(f"{workload}: counters.reencryptions_per_kwrite = {reenc}")
    wal = [k for k in v if k.startswith("store.wal_") or k in ("store.checkpoints_per_kwrite", "store.disk_bytes_per_user_byte")]
    if workload == "durable_skew":
        if not all(v[k] > 0 for k in wal):
            fail(f"durable_skew: WAL metrics {[(k, v[k]) for k in wal]} should all be > 0")
    elif any(v[k] != 0 for k in wal):
        fail(f"{workload}: WAL metrics {[(k, v[k]) for k in wal]} should all be 0")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    os.environ.update(env)
    test = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")])
    if test.returncode != 0:
        fail("cargo test")
    for w in BENCH["workloads"]:
        name = w["name"]
        r0 = run(name, 0, args.seconds, args.seed)
        check_schema(name, 0, r0)
        r1 = run(name, 1, args.seconds, args.seed)
        check_schema(name, 1, r1)
        n = check_spans(name)
        check_sanity(name, r1["metrics"])
        print(f"selftest: {name}: ok ({r0['attempted']} ops untraced, {n} spans traced)")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
