/**
 * @file
 * Configuration of the simulated GPU device.
 */
#ifndef NVBIT_SIM_CONFIG_HPP
#define NVBIT_SIM_CONFIG_HPP

#include <cstddef>
#include <cstdint>

#include "isa/arch.hpp"
#include "mem/device_memory.hpp"

namespace nvbit::sim {

/** Threads per warp (fixed by the architecture, as on real NVIDIA GPUs). */
constexpr unsigned kWarpSize = 32;

/** Maximum hardware return-stack depth per thread (CAL/RET nesting). */
constexpr unsigned kMaxCallDepth = 64;

/** How thread blocks are distributed over SMs at launch time. */
enum class ExecMode : uint8_t {
    Serial,   ///< one host thread walks the SMs in CTA order
    Parallel, ///< one host thread per SM, joined at the launch barrier
};

/** Geometry/latency parameters of one cache level. */
struct CacheConfig {
    size_t size_bytes;
    unsigned assoc;
    unsigned line_bytes;
};

/**
 * Parameters of the simulated device.  Defaults approximate a mid-size
 * part; the benchmarks only depend on ratios, not absolute values.
 */
struct GpuConfig {
    isa::ArchFamily family = isa::ArchFamily::SM5x;
    unsigned num_sms = 16;
    size_t mem_bytes = mem::DeviceMemory::kDefaultSize;

    unsigned max_warps_per_sm = 64;
    unsigned regfile_per_sm = 64 * 1024;  ///< 32-bit registers per SM
    size_t smem_per_sm = 96 * 1024;

    CacheConfig l1{128 * 1024, 4, 128};   ///< per SM
    CacheConfig l2{4 * 1024 * 1024, 16, 128};

    /** Extra cycles charged per line on an L1 miss that hits in L2. */
    unsigned l1_miss_penalty = 4;
    /** Extra cycles charged per line on an L2 miss (DRAM access). */
    unsigned l2_miss_penalty = 20;

    /** Watchdog: abort launches that exceed this many warp-instructions. */
    uint64_t max_warp_instrs_per_launch = 1ull << 33;

    /**
     * Per-launch cycle watchdog: a launch whose slowest SM exceeds this
     * many cycles aborts with a WatchdogTimeout trap instead of hanging
     * the host (e.g. a barrier-free infinite loop).  Deterministic
     * across every engine configuration because each SM's cycle stream
     * is identical in all of them.
     * Env override: NVBIT_SIM_WATCHDOG_CYCLES.
     */
    uint64_t watchdog_cycles = 1ull << 32;

    /**
     * PC-sampling period in SM cycles; 0 disables sampling.  When
     * enabled, each SM emits one (pc, stall reason, cycle) record per
     * resident warp every time its cycle counter crosses a multiple of
     * the period.  Counter-based, so the sample stream is bit-identical
     * across {serial,parallel} x {traces off,on} engines.
     * Env override: NVBIT_SIM_PC_SAMPLING=<period> (0 forces off, and
     * beats any period a tool requested via obs::Profiler).
     */
    uint64_t pc_sample_period = 0;

    /**
     * Bitmask of enabled sanitizer correctness checks
     * (obs/sanitizer.hpp: memcheck=1, racecheck=2, synccheck=4,
     * initcheck=8); 0 disables the sanitizer entirely (no shadow
     * state is even allocated).  Checks are strictly passive — zero
     * simulated-cycle delta, exact counters untouched on quiet runs —
     * and their findings are bit-identical across all four engine
     * configurations (docs/observability.md, "Correctness checking").
     * Env override: NVBIT_SIM_SANCHECK=<check,...>|all|off (beats any
     * mask a tool requested via obs::Sanitizer).
     */
    uint32_t sancheck_mask = 0;

    /**
     * Flush the data caches at the start of every launch, so each
     * launch's cache behaviour (and therefore its Exact counters) is
     * independent of whatever ran before it on the device.  This is
     * what makes a tenant's per-launch statistics bit-identical
     * between a solo run and a run where other tenants' launches
     * interleave on the same GPU — the determinism contract the
     * multi-tenant chaos campaign asserts.  Off by default: single-
     * tenant workloads keep warm-cache behaviour.
     * Env override: NVBIT_SIM_COLD_LAUNCH=0|1.
     */
    bool cold_launch = false;

    /**
     * Host-side execution strategy.  Results are bit-identical in both
     * modes; Parallel runs each SM's thread blocks on a worker thread.
     * Env override: NVBIT_SIM_EXEC=serial|parallel.
     */
    ExecMode exec_mode = ExecMode::Parallel;
    /**
     * Instructions are always fetched from the shared predecode cache
     * (sim/predecode.hpp).  Kept as a constant so engine fingerprints
     * can still report it.
     */
    static constexpr bool use_predecode = true;
    /**
     * Execute hot straight-line superblocks through the trace engine
     * (trace_compiler/trace_exec) instead of per-instruction dispatch.
     * Bit-identical to the per-instruction engine on uninstrumented
     * code; orthogonal to exec_mode.
     * Env override: NVBIT_SIM_TRACES=0|1.
     */
    bool use_traces = false;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_CONFIG_HPP
