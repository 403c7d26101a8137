#!/usr/bin/env python3
"""The benchmark's own test: a short run of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs run.py untraced and traced
for SECONDS seconds, prints every metric with its unit, and
checks that

  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with correct output checks and zero failed operations;
  * every end-to-end metric (untraced) and every per-layer metric
    (traced) is printed by name with the unit BENCHMARK.json gives, and
    every end-to-end value is a positive number;
  * the traced run's Chrome trace nests: every child lies inside its
    parent and belongs to the parent's app run, every app run has one
    root, and no span names a parent that is missing.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACES = ROOT / ".bench_build" / "perfbench" / "traces"
SEED = 7
SECONDS = 1.0


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return None, [f"run.py exited with {proc.returncode}"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def check_result(res, wanted):
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errs.append(f"output checks: correct={res.get('correct')} "
                    f"failed={res.get('failed')}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errs.append(f"attempted={res.get('attempted')}")
    metrics = res.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errs.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errs.append(f"metric {m['name']} unit {got.get('unit')} != "
                        f"{m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errs.append(f"metric {m['name']} value {got.get('value')}")
        elif "bound" in m and got["value"] <= 0:
            errs.append(f"end-to-end metric {m['name']} is {got['value']}")
    return errs


def check_nesting(path):
    events = json.loads(path.read_text())["traceEvents"]
    spans = {e["args"]["id"]: e["args"] | {"name": e["name"]}
             for e in events}
    if len(spans) != len(events):
        return ["duplicate span ids"]
    errs = []
    roots = {}
    for s in spans.values():
        if s["end_ns"] < s["start_ns"]:
            errs.append(f"span {s['id']} ({s['name']}) ends before it starts")
        if s["parent"] == 0:
            roots[s["run"]] = roots.get(s["run"], 0) + 1
            continue
        p = spans.get(s["parent"])
        if p is None:
            errs.append(f"span {s['id']} ({s['name']}) is an orphan")
        elif p["run"] != s["run"]:
            errs.append(f"span {s['id']} ({s['name']}) crosses app runs")
        elif s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            errs.append(f"span {s['id']} ({s['name']}) lies outside its "
                        f"parent {p['id']} ({p['name']})")
    runs = {s["run"] for s in spans.values()}
    for r in sorted(runs):
        if roots.get(r, 0) != 1:
            errs.append(f"app run {r} has {roots.get(r, 0)} roots")
    if not spans:
        errs.append("trace has no spans")
    return errs[:10]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            res, errs = run(wl, trace)
            if res is not None:
                errs += check_result(res, wanted)
            if res is not None and trace:
                errs += check_nesting(TRACES / f"{wl}-seed{SEED}.trace.json")
            label = f"{wl} --trace {trace}"
            print(f"{'PASS' if not errs else 'FAIL'} {label}")
            for e in errs:
                print(f"    {e}")
            for name, m in (res or {}).get("metrics", {}).items():
                print(f"    {name} = {m['value']:.6g} {m['unit']}")
            failures += bool(errs)
    print("selftest:", "PASS" if not failures else f"{failures} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
