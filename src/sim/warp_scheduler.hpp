/**
 * @file
 * Warp scheduling layer: per-thread contexts and min-PC issue logic.
 *
 * Divergence is handled with per-thread PCs and min-PC scheduling
 * (threads whose PC is smallest execute first), which reconverges
 * structured control flow and supports arbitrary code layouts —
 * including NVBit trampolines placed far from the original function.
 */
#ifndef NVBIT_SIM_WARP_SCHEDULER_HPP
#define NVBIT_SIM_WARP_SCHEDULER_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "sim/config.hpp"
#include "sim/lane_ops.hpp"
#include "sim/launch.hpp"

namespace nvbit::sim {

/** Per-thread architectural state. */
struct ThreadCtx {
    enum class St : uint8_t { Ready, Barrier, Exited };

    std::array<uint32_t, isa::kNumRegNames> regs{};
    uint8_t preds = 0;           // P0..P6 in bits 0..6
    uint64_t pc = 0;
    St state = St::Ready;
    uint64_t ret_stack[kMaxCallDepth];
    unsigned ret_depth = 0;
    uint32_t tid[3] = {0, 0, 0};
    uint32_t flat_tid = 0;
};

// --- Register-file helpers shared by scheduler and interpreter ----------

inline uint32_t
readReg(const ThreadCtx &t, uint8_t r)
{
    return r == isa::kRegZ ? 0 : t.regs[r];
}

inline void
writeReg(ThreadCtx &t, uint8_t r, uint32_t v)
{
    if (r != isa::kRegZ)
        t.regs[r] = v;
}

inline uint64_t
readPair(const ThreadCtx &t, uint8_t r)
{
    if (r == isa::kRegZ)
        return 0;
    uint64_t lo = t.regs[r];
    uint64_t hi = (r + 1 < isa::kRegZ) ? t.regs[r + 1] : 0;
    return lo | (hi << 32);
}

inline void
writePair(ThreadCtx &t, uint8_t r, uint64_t v)
{
    if (r == isa::kRegZ)
        return;
    t.regs[r] = static_cast<uint32_t>(v);
    if (r + 1 < isa::kRegZ)
        t.regs[r + 1] = static_cast<uint32_t>(v >> 32);
}

/** The lanes of @p active_mask whose guard predicate of @p in passes. */
inline uint32_t
guardMask(const ThreadCtx *warp, uint32_t active_mask,
          const isa::Instruction &in)
{
    if (in.alwaysExecutes())
        return active_mask;
    uint32_t m = 0;
    for (unsigned l = 0; l < kWarpSize; ++l) {
        if (((active_mask >> l) & 1) &&
            predBit(warp[l].preds, in.pred, in.pred_neg))
            m |= 1u << l;
    }
    return m;
}

/**
 * Owns the thread contexts of one resident thread block and decides,
 * per warp, which PC to issue next.
 */
class WarpScheduler
{
  public:
    /** What pick() found for a warp. */
    enum class Pick : uint8_t {
        Issue,     ///< slot holds a PC and active mask to execute
        Blocked,   ///< live threads exist but all wait at the barrier
        AllExited, ///< every thread of the warp has exited
    };

    struct IssueSlot {
        uint64_t pc = 0;
        uint32_t active_mask = 0;
        /**
         * True when the active set is *every* non-exited thread of the
         * warp (no lane parked at a barrier, none diverged to another
         * PC).  The trace engine only enters a superblock under this
         * convergence guard; straight-line trace entries cannot change
         * thread state, so uniformity persists for the whole trace.
         */
        bool converged = false;
    };

    /** Initialise thread state for one thread block of @p lp. */
    WarpScheduler(const LaunchParams &lp);

    unsigned numWarps() const { return nwarps_; }
    uint32_t numThreads() const { return nthreads_; }

    ThreadCtx *warp(unsigned w) { return &threads_[w * kWarpSize]; }
    const ThreadCtx *warp(unsigned w) const
    {
        return &threads_[w * kWarpSize];
    }

    /**
     * Min-PC selection: the issue PC is the smallest PC among the
     * warp's Ready threads; the active set is every Ready thread
     * converged at that PC.  On Blocked the slot still reports where
     * the warp is parked (smallest post-advance barrier PC, empty
     * active mask) so stall attribution can point at the barrier.
     */
    Pick pick(unsigned w, IssueSlot &slot) const;

    /**
     * Destination GPR of the last instruction the warp issued
     * (isa::kRegZ when none, or when it wrote no GPR).  Maintained by
     * the SM layer to flag read-after-write dependency stalls.
     */
    uint8_t lastDst(unsigned w) const { return last_dst_[w]; }
    void setLastDst(unsigned w, uint8_t r) { last_dst_[w] = r; }

    /** Advance all active threads to @p next_pc (control flow in the
     *  interpreter then overrides the divergent ones). */
    void advance(unsigned w, uint32_t active_mask, uint64_t next_pc);

    /** Release every thread waiting at the barrier.
     *  @return false if no thread was waiting (deadlock upstream). */
    bool releaseBarrier();

    /**
     * Snapshot of the block's barrier state, used by the SM layer to
     * detect divergent-barrier deadlocks (threads parked at more than
     * one distinct `bar.sync`). Only real threads are considered —
     * warp-padding lanes are born Exited and must not count as
     * "exited at the barrier".
     */
    struct BarrierSnapshot {
        uint32_t waiting = 0; ///< threads parked at a barrier
        uint32_t exited = 0;  ///< real threads that already exited
        /** Number of distinct PCs the waiting threads are parked at
         *  (> 1 means they arrived at different barriers). */
        uint32_t distinct_pcs = 0;
        /** Smallest post-advance PC among waiting threads (the
         *  instruction *after* the BAR; subtract one instruction
         *  to recover the barrier pc). */
        uint64_t min_pc = 0;
        /** Warp ids with at least one thread stuck at the barrier. */
        std::vector<uint32_t> stuck_warps;
    };

    BarrierSnapshot barrierSnapshot() const;

    /**
     * Value snapshot of the block's complete architectural thread
     * state — registers, predicates, PCs, return stacks, barrier
     * parking — for mid-launch checkpoint/restore.  Restoring onto a
     * scheduler freshly constructed from the same LaunchParams yields
     * a block indistinguishable from the captured one.
     */
    struct StateImage {
        std::vector<ThreadCtx> threads;
        std::vector<uint8_t> last_dst;
    };

    StateImage snapshotState() const { return {threads_, last_dst_}; }

    void
    restoreState(const StateImage &img)
    {
        threads_ = img.threads;
        last_dst_ = img.last_dst;
    }

  private:
    uint32_t nthreads_ = 0;
    unsigned nwarps_ = 0;
    std::vector<ThreadCtx> threads_;
    std::vector<uint8_t> last_dst_; // per warp; kRegZ = none
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_WARP_SCHEDULER_HPP
