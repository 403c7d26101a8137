#!/usr/bin/env bash
# CI entry point: docs hygiene, a warning-free (-Werror) tier-1 build +
# full test suite, a fast bench smoke (validating the BENCH_*.json
# artifact path), the perf guard and the repo benchmark's self-test,
# then the whole test suite under ASan+UBSan via the `sanitize` CMake
# preset, once with the per-instruction engine and once traced
# (`NVBIT_SIM_TRACES=1`), and the driver/concurrency suites under
# ThreadSanitizer via the `tsan` preset (the multi-tenant stress and
# chaos tests, and the grid-order reduction suite `test_reductions`
# with its racing-store test, are only meaningful race-free).
# The `telemetry` label there also carries the observability-session
# lifecycle tests (`SessionExitTest.*` in test_telemetry: a launch in
# flight at exit reaches every artifact; empty values mean unset), and
# the `trace` label (test_trace) has parallel SMs compile and read the
# lock-free per-page trace slots of the code cache.
#
# The `concurrency` label (`ctest -L concurrency`) selects
# test_mt_driver and test_reductions.
#
# Usage: scripts/ci.sh [--no-sanitize]
#
# The fault/exception suite alone can be run with
#   ctest --test-dir build -L faults
set -euo pipefail

cd "$(dirname "$0")/.."

run_sanitize=1
[[ "${1:-}" == "--no-sanitize" ]] && run_sanitize=0

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "==> docs: check_docs.sh"
scripts/check_docs.sh

echo "==> tier-1: configure + build (warnings are errors)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build build -j "$jobs"

echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "==> bench smoke: micro_core (one filter) + figure --smoke runs"
./build/bench/micro_core --benchmark_filter=BM_EncodeDecode \
    --benchmark_min_time=0.01
./build/bench/fig5_jit_overhead --smoke
./build/bench/fig6_mem_divergence --smoke
./build/bench/fig7_instr_histogram --smoke
./build/bench/fig8_sampling_slowdown --smoke
./build/bench/fig9_sampling_error --smoke
./build/bench/fig_pcsamp_overhead --smoke
./build/bench/fig_counter_overhead --smoke
./build/bench/fig_simpoint --smoke
./build/bench/tab_wfft_emulation --smoke
./build/bench/mt_driver --smoke
./build/bench/fig_telemetry_overhead --smoke
./build/bench/fig_sancheck_overhead --smoke
for artifact in BENCH_micro_core.json BENCH_fig5_jit_overhead.json \
    BENCH_fig6_mem_divergence.json BENCH_fig7_instr_histogram.json \
    BENCH_fig8_sampling_slowdown.json BENCH_fig9_sampling_error.json \
    BENCH_fig_pcsamp_overhead.json BENCH_fig_counter_overhead.json \
    BENCH_fig_simpoint.json BENCH_fig_telemetry_overhead.json \
    BENCH_fig_sancheck_overhead.json \
    BENCH_tab_wfft_emulation.json BENCH_mt_driver.json; do
    if [[ ! -s "$artifact" ]]; then
        echo "ci: missing bench artifact $artifact" >&2
        exit 1
    fi
done

echo "==> bench guard: same-run ratios + absolute bounds + SimPoint baseline"
scripts/bench_guard.sh

echo "==> repo benchmark: perfbench self-test (short run of every workload)"
python3 perfbench/selftest.py

if [[ "$run_sanitize" == 1 ]]; then
    echo "==> sanitize (ASan+UBSan): configure + build"
    cmake --preset sanitize
    cmake --build --preset sanitize -j "$jobs"

    echo "==> sanitize: ctest (includes the concurrency suites: test_mt_driver, test_reductions)"
    ctest --preset sanitize

    echo "==> sanitize: ctest (traced execution engine)"
    NVBIT_SIM_TRACES=1 ctest --preset sanitize

    echo "==> tsan: configure + build"
    cmake --preset tsan
    cmake --build --preset tsan -j "$jobs"

    echo "==> tsan: ctest (driver + concurrency [test_mt_driver, test_reductions] + telemetry [incl. SessionExitTest lifecycle] + sancheck + trace suites)"
    ctest --preset tsan
fi

echo "==> CI OK"
