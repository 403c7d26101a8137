/**
 * @file
 * Per-launch execution statistics.
 *
 * These counters are the simulator's ground truth.  NVBit tools measure
 * the same quantities through instrumentation; the integration tests
 * compare tool results against these oracles.
 */
#ifndef NVBIT_SIM_STATS_HPP
#define NVBIT_SIM_STATS_HPP

#include <array>
#include <cstdint>

#include "isa/opcodes.hpp"
#include "obs/events.hpp"  // HwEvent / EventSet
#include "obs/profile.hpp" // StallReason / kNumStallReasons

namespace nvbit::sim {

struct LaunchStats {
    /** Thread-level instructions executed (guard predicate passed). */
    uint64_t thread_instrs = 0;
    /** Warp-level instructions issued (at least one active thread). */
    uint64_t warp_instrs = 0;
    /** Estimated device cycles (max over SMs of per-SM issue+stall). */
    uint64_t cycles = 0;

    /**
     * Per-StallReason breakdown of `cycles`, indexed by
     * `obs::StallReason`.  For a single launch this is the critical
     * (slowest) SM's breakdown, so the buckets sum exactly to `cycles`;
     * after merge() the invariant becomes sum(buckets) == sum(cycles).
     */
    std::array<uint64_t, obs::kNumStallReasons> cycles_by_reason{};

    /** Warp-level instructions per opcode. */
    std::array<uint64_t, static_cast<size_t>(isa::Opcode::NumOpcodes)>
        warp_instrs_by_op{};
    /** Thread-level instructions per opcode. */
    std::array<uint64_t, static_cast<size_t>(isa::Opcode::NumOpcodes)>
        thread_instrs_by_op{};

    /** Warp-level global-memory instructions (LDG/STG/ATOM) executed. */
    uint64_t global_mem_warp_instrs = 0;
    /**
     * Sum over global-memory warp instructions of the number of unique
     * cache lines touched (the oracle for the paper's Figure 6 metric:
     * divergence = unique_lines_sum / global_mem_warp_instrs).
     */
    uint64_t unique_lines_sum = 0;
    /**
     * Sum over global-memory warp instructions of the number of unique
     * 32-byte sectors touched — the oracle tools/mem_divergence
     * measures against (transactions-per-request at the granularity
     * the memory system actually moves data in).
     */
    uint64_t unique_sectors_sum = 0;

    uint64_t l1_hits = 0, l1_misses = 0;
    uint64_t l2_hits = 0, l2_misses = 0;

    /** Thread blocks executed. */
    uint64_t ctas = 0;

    /**
     * Hardware performance events (obs/events.hpp).  Free-running and
     * strictly passive: charged by the SM layer alongside the counters
     * above, never through chargeCycles, so collecting them changes
     * the cycle count by exactly zero.
     */
    obs::EventSet events;

    /** Instruction fetches served by an SM's cached predecoded page. */
    uint64_t decode_cache_hits = 0;
    /** Instruction fetches that had to consult the shared code cache
     *  (page-pointer change) or byte-decode (misaligned fetch). */
    uint64_t decode_cache_misses = 0;

    /** Merge another launch's stats into this one. */
    void
    merge(const LaunchStats &o)
    {
        thread_instrs += o.thread_instrs;
        warp_instrs += o.warp_instrs;
        cycles += o.cycles;
        for (size_t i = 0; i < cycles_by_reason.size(); ++i)
            cycles_by_reason[i] += o.cycles_by_reason[i];
        for (size_t i = 0; i < warp_instrs_by_op.size(); ++i) {
            warp_instrs_by_op[i] += o.warp_instrs_by_op[i];
            thread_instrs_by_op[i] += o.thread_instrs_by_op[i];
        }
        global_mem_warp_instrs += o.global_mem_warp_instrs;
        unique_lines_sum += o.unique_lines_sum;
        unique_sectors_sum += o.unique_sectors_sum;
        events.merge(o.events);
        l1_hits += o.l1_hits;
        l1_misses += o.l1_misses;
        l2_hits += o.l2_hits;
        l2_misses += o.l2_misses;
        ctas += o.ctas;
        decode_cache_hits += o.decode_cache_hits;
        decode_cache_misses += o.decode_cache_misses;
    }
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_STATS_HPP
