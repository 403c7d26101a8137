#!/usr/bin/env bash
# Guard the simulator's scheduler hot path against perf regressions:
# run the micro_core engine comparison and check two ratios of rows
# measured in the same run, so the verdict does not depend on the
# host's speed or core count:
#
#   trace_speedup                 serial per-instruction / serial traced
#   sampling_overhead_throughput  serial sampled / serial unsampled
#
# Each must stay inside a two-sided band.  A trace speedup near 1x
# means the trace engine stopped engaging; an unexpectedly large one
# means it stopped doing work it should do (a skipped charge).  The
# sampling band catches an accidental O(n) insertion in the sampled
# scheduler loop.  Both ratios use serial rows, whose time does not
# depend on how many host cores are free, and micro_core launches the
# rows interleaved so host-speed drift cancels.  On a shared 4-core
# host: trace_speedup 4.7-5.3x unpinned; sampling 1.01-1.07x, unpinned
# and pinned to one core (taskset -c 0).
#
# The multi-tenant driver-service path is gated on a same-run ratio
# too: BENCH_mt_driver's tenant_scaling, the four-tenant aggregate
# launches/sec over one tenant issuing the same total launch count in
# the same process.  The band is wide because both rates are
# wall-clock over host threads on a shared box; the guard is there to
# catch an accidental global-lock serialisation of the stream service
# (an order-of-magnitude collapse), not 20% jitter.  On a shared 4-core
# host: 0.84-1.02x unpinned, 0.74-0.89x pinned to one core.
#
# The live telemetry plane (docs/observability.md "Live telemetry")
# is gated on *absolute* bounds, not a baseline diff: every run of
# BENCH_fig_telemetry_overhead must report passivity (exact counters
# bit-identical with the full plane on vs everything off) and <= 5%
# exporter wall-clock overhead on the mt_driver load.  Flow-tracing
# overhead is reported but not gated — it is proportional to the
# event rate the user asked to record.  The binary asserts the same
# bounds in its exit status; the guard re-checks the artifact so a
# stale or hand-edited JSON cannot sneak past.
#
# The correctness-observability checks (docs/observability.md,
# "Correctness checking") are gated on absolute bounds the same way:
# every BENCH_fig_sancheck_overhead run must report a zero simulated-
# cycle delta (the checks are passive), zero violations on the clean
# workloads (no false positives), and a bounded mean wall-clock
# slowdown with all four checks on.
#
# The SimPoint targeted-sampling pipeline (docs/simpoint.md) is gated
# on *absolute* methodology bounds rather than a ratio diff: every
# workload row in BENCH_fig_simpoint.json must report >= 3x
# simulated-work reduction and <= 5% extrapolation error on each
# validated metric (the fig_simpoint binary asserts the same bounds in
# its exit status; the guard re-checks the artifact so a stale or
# hand-edited JSON cannot sneak past).  The committed baseline is kept
# for drift comparison of the clustering itself: a changed k or chosen
# count for the same workload means the deterministic pipeline changed
# behaviour and a human should confirm it was intentional.
#
# Usage: scripts/bench_guard.sh [--update]
#   --update   refresh the committed SimPoint baseline from a fresh
#              run instead of diffing (then commit it).
set -euo pipefail

cd "$(dirname "$0")/.."

fresh=BENCH_micro_core.json
trace_min=3.0 # trace_speedup band
trace_max=15.0
samp_min=0.9 # sampling_overhead_throughput band
samp_max=1.5

mt_fresh=BENCH_mt_driver.json
mt_min=0.4 # tenant_scaling band (wall-clock, noisier)
mt_max=1.5

sp_baseline=bench/baselines/BENCH_fig_simpoint.baseline.json
sp_fresh=BENCH_fig_simpoint.json
sp_min_reduction=3.0 # absolute methodology bounds (ISSUE acceptance)
sp_max_error=5.0

tel_fresh=BENCH_fig_telemetry_overhead.json
tel_max_overhead=5.0 # absolute bounds; passivity must also hold

san_fresh=BENCH_fig_sancheck_overhead.json
san_max_overhead=3.5 # mean all-checks-on wall-clock ratio budget

if [[ ! -x build/bench/micro_core ]]; then
    echo "bench_guard: build/bench/micro_core missing (build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/mt_driver ]]; then
    echo "bench_guard: build/bench/mt_driver missing (build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/fig_simpoint ]]; then
    echo "bench_guard: build/bench/fig_simpoint missing (build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/fig_telemetry_overhead ]]; then
    echo "bench_guard: build/bench/fig_telemetry_overhead missing" \
         "(build first)" >&2
    exit 1
fi
if [[ ! -x build/bench/fig_sancheck_overhead ]]; then
    echo "bench_guard: build/bench/fig_sancheck_overhead missing" \
         "(build first)" >&2
    exit 1
fi

echo "==> bench_guard: running micro_core engine comparison"
./build/bench/micro_core --benchmark_filter=BM_CacheModel \
    --benchmark_min_time=0.01 >/dev/null

echo "==> bench_guard: running mt_driver load generator"
./build/bench/mt_driver >/dev/null

echo "==> bench_guard: running fig_simpoint sampling validation"
./build/bench/fig_simpoint >/dev/null

echo "==> bench_guard: running fig_telemetry_overhead"
./build/bench/fig_telemetry_overhead >/dev/null

echo "==> bench_guard: running fig_sancheck_overhead"
./build/bench/fig_sancheck_overhead --smoke >/dev/null

if [[ "${1:-}" == "--update" ]]; then
    mkdir -p "$(dirname "$sp_baseline")"
    cp "$sp_fresh" "$sp_baseline"
    echo "bench_guard: baseline updated from $sp_fresh"
    exit 0
fi

if [[ ! -s "$sp_baseline" ]]; then
    echo "bench_guard: no baseline at $sp_baseline (run --update)" >&2
    exit 1
fi

python3 - "$fresh" "$trace_min" "$trace_max" "$samp_min" "$samp_max" \
    <<'EOF'
import json
import sys

fresh_path = sys.argv[1]
bands = {
    "trace_speedup": (float(sys.argv[2]), float(sys.argv[3])),
    "sampling_overhead_throughput": (float(sys.argv[4]),
                                     float(sys.argv[5])),
}
with open(fresh_path) as f:
    fresh = json.load(f)

failed = False
for key, (lo, hi) in bands.items():
    v = fresh[key]
    ok = lo <= v <= hi
    print(f"  {key:<30} {v:7.3f}x (band [{lo}x, {hi}x]) "
          f"{'OK' if ok else 'OUT OF BAND'}")
    failed |= not ok
if failed:
    print("bench_guard: a same-run micro_core ratio left its band; the "
          "trace engine or the sampled scheduler loop changed cost",
          file=sys.stderr)
    sys.exit(1)
print("bench_guard: hot path within budget")
EOF

python3 - "$mt_fresh" "$mt_min" "$mt_max" <<'EOF'
import json
import sys

fresh_path, lo, hi = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
with open(fresh_path) as f:
    fresh = json.load(f)

v = fresh["tenant_scaling"]
ok = lo <= v <= hi
print(f"  mt_driver aggregate {fresh['launches_per_sec']:10.0f} vs single "
      f"tenant {fresh['single_tenant_launches_per_sec']:10.0f} launches/sec "
      f"(p50 {fresh['p50_us']:.0f} us, p99 {fresh['p99_us']:.0f} us): "
      f"tenant_scaling {v:5.2f}x (band [{lo}x, {hi}x]) "
      f"{'OK' if ok else 'OUT OF BAND'}")
if not ok:
    print("bench_guard: multi-tenant launch throughput left its band "
          "relative to one tenant; the stream service serialises tenants "
          "or one tenant's path changed cost", file=sys.stderr)
    sys.exit(1)
print("bench_guard: multi-tenant driver service within budget")
EOF

python3 - "$sp_baseline" "$sp_fresh" "$sp_min_reduction" \
    "$sp_max_error" <<'EOF'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
min_reduction, max_error = float(sys.argv[3]), float(sys.argv[4])
with open(baseline_path) as f:
    base = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)

# Absolute methodology bounds on the fresh run, per workload.
failed = False
for r in fresh["workloads"]:
    errs = [r["err_ipc"], r["err_l1"], r["err_l2"], r["err_occ"]]
    ok = r["reduction"] >= min_reduction and max(errs) <= max_error
    print(f"  {r['workload']:<12} {r['reduction']:7.2f}x reduction, "
          f"max err {max(errs):6.3f}% "
          f"{'OK' if ok else 'OUT OF BOUNDS'}")
    failed |= not ok
if failed:
    print(f"bench_guard: sampled replay fell below {min_reduction}x "
          f"work reduction or above {max_error}% extrapolation error "
          f"on some workload — the targeted-sampling methodology "
          f"contract (docs/simpoint.md) is broken", file=sys.stderr)
    sys.exit(1)

# Clustering drift vs the committed baseline: the pipeline is
# deterministic, so a changed k / chosen count for the same workload
# means its behaviour changed and needs a deliberate --update.
base_rows = {r["workload"]: r for r in base["workloads"]}
for r in fresh["workloads"]:
    b = base_rows.get(r["workload"])
    if b and (b["k"] != r["k"] or b["chosen"] != r["chosen"]):
        print(f"bench_guard: clustering drift on {r['workload']} "
              f"(k {b['k']} -> {r['k']}, chosen {b['chosen']} -> "
              f"{r['chosen']}); if intentional, rerun with --update "
              f"and commit the new baseline", file=sys.stderr)
        sys.exit(1)
print("bench_guard: targeted sampling within methodology bounds")
EOF

python3 - "$tel_fresh" "$tel_max_overhead" <<'EOF'
import json
import sys

fresh_path, max_overhead = sys.argv[1], float(sys.argv[2])
with open(fresh_path) as f:
    fresh = json.load(f)

# Absolute bounds on the fresh run (no baseline: the contract is not
# "as fast as last time" but "passive and under budget", always).
overhead = fresh["exporter_overhead_pct"]
full = fresh["full_overhead_pct"]
passive = fresh["passivity_ok"]
print(f"  telemetry exporter: {overhead:+6.2f}% overhead "
      f"(budget {max_overhead:.0f}%; full plane {full:+.2f}%, "
      f"reported), {'passive' if passive else 'NOT PASSIVE'}")
if not passive:
    print("bench_guard: telemetry-on run changed an exact counter — "
          "the passivity contract (docs/observability.md) is broken",
          file=sys.stderr)
    sys.exit(1)
if overhead > max_overhead:
    print(f"bench_guard: telemetry exporter overhead {overhead:.2f}% "
          f"exceeds the {max_overhead}% budget on the mt_driver load",
          file=sys.stderr)
    sys.exit(1)
print("bench_guard: telemetry exporter passive and within budget")
EOF

python3 - "$san_fresh" "$san_max_overhead" <<'EOF'
import json
import sys

fresh_path, max_overhead = sys.argv[1], float(sys.argv[2])
with open(fresh_path) as f:
    fresh = json.load(f)

# Absolute bounds (no baseline): the sanitizer contract is "passive,
# no false positives, bounded slowdown", not "as fast as last time".
delta = fresh["cycles_delta_sum"]
fps = fresh["false_positives"]
mean = fresh["mean_all_overhead"]
print(f"  sancheck: {mean:.3f}x mean all-checks-on overhead "
      f"(budget {max_overhead}x), cycles_delta {delta}, "
      f"false positives {fps}")
if delta != 0:
    print("bench_guard: sanitizer checks changed simulated cycles — "
          "the passivity contract (docs/observability.md) is broken",
          file=sys.stderr)
    sys.exit(1)
if fps != 0:
    print("bench_guard: sanitizer checks fired on clean workloads — "
          "false positives are an acceptance failure", file=sys.stderr)
    sys.exit(1)
if mean > max_overhead:
    print(f"bench_guard: mean all-checks-on overhead {mean:.3f}x "
          f"exceeds the {max_overhead}x budget", file=sys.stderr)
    sys.exit(1)
print("bench_guard: sanitizer checks passive, clean and within budget")
EOF
