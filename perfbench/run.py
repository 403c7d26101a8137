#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload suite-bare|suite-instrumented|tenants
                             --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, optimised, into
.bench_build/perfbench), runs one workload for S seconds and prints, as
the last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it
give the host fingerprint; the full report, fingerprint included, is
also written to .bench_build/perfbench/results/.  A traced run writes
its spans as a Chrome trace to .bench_build/perfbench/traces/.

Exits non-zero without a result when the simulator sources are missing,
the build fails, an NVBIT_SIM_* variable is set, or the harness fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "build" / "perfbench_harness"
WORKLOADS = ("suite-bare", "suite-instrumented", "tenants")
RUN_LIMIT_S = 170  # the harness must finish well inside 180 s


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the harness up to date."""
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "build" / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B",
                      str(BUILD / "build"),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD / "build"), "--target",
                  "perfbench_harness", "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout
    the benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for p in sorted(top.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    build()

    cmd = [str(HARNESS), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(BUILD / "traces" / f"{tag}.trace.json")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])

    report["fingerprint"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["type"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "engine": report["engine"],
        "run_s": round(time.monotonic() - t0, 3),
    }
    (BUILD / "results").mkdir(exist_ok=True)
    out = BUILD / "results" / f"{tag}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print("fingerprint: " + json.dumps(report["fingerprint"]))
    print(f"passes: {report['passes']}, launch samples: "
          f"{report['launch_samples']}, report: {out.relative_to(ROOT)}")
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
