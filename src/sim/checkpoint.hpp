/**
 * @file
 * Device-state checkpoint capsule (SimPoint fast-forward substrate).
 *
 * A GpuState is a pure value snapshot of everything the simulated
 * device needs to reproduce execution from a capture point:
 *
 *  - the flat device-memory image plus allocator maps (global state,
 *    loaded code, kernel parameters),
 *  - the L1/L2 tag+LRU state,
 *  - for mid-launch captures: every SM executor's committed state
 *    (stats shard, cycle totals, PC samples, deferred L2 logs) plus
 *    the in-flight thread block's complete architectural state
 *    (registers, predicates, PCs, return stacks, local/shared
 *    memory, scheduler position within the round-robin issue loop).
 *
 * Capture is passive: `GpuDevice::armCheckpoint` records the state at
 * a deterministic point of the launch (top of a scheduling round of a
 * chosen CTA) and execution continues unperturbed, so a capturing run
 * is bit-identical to a non-capturing one.  `GpuDevice::resumeLaunch`
 * rebuilds executors from the capsule and finishes the launch; the
 * serial/parallel bit-identity contract (docs/execution_pipeline.md)
 * guarantees the resumed result matches any engine configuration.
 *
 * Derived caches (predecoded code pages, compiled traces) are NOT part
 * of the capsule: restore invalidates them and they rebuild on demand,
 * changing only the Volatile decode-cache counters.
 */
#ifndef NVBIT_SIM_CHECKPOINT_HPP
#define NVBIT_SIM_CHECKPOINT_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/device_memory.hpp"
#include "sim/cache.hpp"
#include "sim/launch.hpp"
#include "sim/sm.hpp"

namespace nvbit::sim {

/** Complete device snapshot; see the file comment for contents. */
struct GpuState {
    mem::DeviceMemory::Image memory;
    CacheHierarchy::Image caches;

    /** True when captured inside a launch; the fields below are then
     *  valid and resumeLaunch() can finish the interrupted launch. */
    bool mid_launch = false;
    /** The interrupted launch (self-contained: parameter banks and
     *  entry PC travel with the capsule). */
    LaunchParams lp;
    /** First CTA (flat grid index) not yet fully executed.  When
     *  `mid_cta` is set this CTA is partially done and resumes from
     *  the captured round; otherwise it starts fresh. */
    uint64_t next_cta = 0;
    /** Committed state of every SM executor, indexed by SM id. */
    std::vector<SmExecutor::StateImage> sms;
    /** In-flight thread block state (absent for boundary captures). */
    std::optional<SmExecutor::MidCtaImage> mid_cta;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_CHECKPOINT_HPP
