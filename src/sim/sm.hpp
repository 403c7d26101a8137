/**
 * @file
 * SM layer: one executor per streaming multiprocessor.
 *
 * An SmExecutor owns everything one SM touches during a launch — its
 * stats shard, its private L1 stream, its cached predecoded page and
 * its deferred-L2 access log — so the parallel path has no shared
 * mutable counters in the hot loop.  Determinism vs. the serial path
 * is preserved by three rules:
 *
 *  1. CTA → SM assignment is `cta_index % num_sms` in both modes, and
 *     each SM runs its CTAs in increasing global index, so every SM
 *     sees the identical L1 access stream either way.
 *  2. The shared L2 is not touched during execution; each CTA logs
 *     its L1-miss lines and the orchestrator replays them against the
 *     L2 in global CTA order after the join — the exact sequence the
 *     serial order produces.
 *  3. Cross-CTA atomics commit in grid order.  A returning ATOM in
 *     CTA k blocks on the AtomicGate until all CTAs with smaller
 *     global index have retired (CTA k is then the *commit head*),
 *     and commits CTA k's own pending reductions before it reads.
 *     Reductions (reduction_log.hpp) never block: a head applies them
 *     directly, any other CTA logs them, and the gate applies each
 *     retired CTA's log in grid order.  This is deadlock-free because
 *     the smallest unfinished CTA never waits and every SM task runs
 *     on its own pool thread.
 */
#ifndef NVBIT_SIM_SM_HPP
#define NVBIT_SIM_SM_HPP

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "mem/device_memory.hpp"
#include "obs/profile.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/interpreter.hpp"
#include "sim/launch.hpp"
#include "sim/predecode.hpp"
#include "sim/reduction_log.hpp"
#include "sim/stats.hpp"
#include "sim/warp_scheduler.hpp"

namespace nvbit::sim {

/** One thread block's identity within a launch. */
struct CtaWork {
    uint64_t cta_index = 0; ///< flat grid index (x fastest)
    uint32_t ctaid[3] = {0, 0, 0};
};

/**
 * One L1-miss line deferred to the post-join L2 replay, plus the
 * (pc, warp) that issued it so replay penalty cycles can be attributed
 * and PC-sampled like execution cycles.
 */
struct L2LogLine {
    uint64_t line = 0;
    uint64_t pc = 0;
    uint32_t warp = 0;
    /** Sectors of the line the access touched (event accounting). */
    uint32_t sectors = 1;
    /** Store/atomic traffic (read/write split in L2 sector events). */
    bool is_write = false;
};

/**
 * Orders cross-CTA atomic commits.  CTA k is the *commit head* once
 * CTAs 0..k-1 have retired and their reductions have been applied; a
 * returning atomic proceeds only there.  Retired CTAs hand over their
 * pending reductions, which are applied in grid order as the head
 * advances, so parallel results match serial ones bit-for-bit.
 */
class AtomicGate
{
  public:
    /** @p retired leading CTAs count as already retired (a launch
     *  resumed from a checkpoint). */
    AtomicGate(uint64_t num_ctas, mem::DeviceMemory &mem,
               uint64_t retired = 0)
        : mem_(mem), done_(num_ctas, 0), next_(retired),
          low_water_(retired)
    {
        std::fill_n(done_.begin(), retired, 1);
    }

    /** True if CTA @p cta is the commit head (or already retired). */
    bool
    isHead(uint64_t cta) const
    {
        return low_water_.load(std::memory_order_acquire) >= cta;
    }

    /** Block until CTA @p cta is the commit head. */
    void
    waitForPriorCtas(uint64_t cta)
    {
        if (isHead(cta))
            return;
        std::unique_lock<std::mutex> lk(mu_);
        if (next_ >= cta)
            return;
        ++waits_;
        const auto t0 = std::chrono::steady_clock::now();
        cv_.wait(lk, [&] { return next_ >= cta; });
        wait_ns_ += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }

    /**
     * Retire CTA @p cta (or abandon it on trap/abort), taking its
     * pending reductions, and apply every log the head now passes.
     * Leaves @p log empty.
     */
    void
    markDone(uint64_t cta, ReductionLog &log)
    {
        std::lock_guard<std::mutex> lk(mu_);
        done_[cta] = 1;
        if (!log.empty())
            parked_.emplace(cta, std::exchange(log, {}));
        while (next_ < done_.size() && done_[next_]) {
            if (auto it = parked_.find(next_); it != parked_.end()) {
                it->second.applyTo(mem_);
                parked_.erase(it);
            }
            ++next_;
        }
        low_water_.store(next_, std::memory_order_release);
        cv_.notify_all();
    }

    /** Times a CTA blocked in waitForPriorCtas, and the host
     *  nanoseconds it spent there (self-observability). */
    uint64_t
    waits() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return waits_;
    }
    uint64_t
    waitNs() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return wait_ns_;
    }

  private:
    mem::DeviceMemory &mem_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<char> done_;
    /** Logs of retired CTAs the head has not reached yet. */
    std::map<uint64_t, ReductionLog> parked_;
    /** CTAs 0..next_-1 are all done and their logs applied. */
    uint64_t next_ = 0;
    std::atomic<uint64_t> low_water_{0};
    uint64_t waits_ = 0;
    uint64_t wait_ns_ = 0;
};

/**
 * Executes thread blocks assigned to one SM.  Not thread-safe itself;
 * each instance is driven by exactly one thread per launch.
 */
class SmExecutor : public MemModel
{
  public:
    /** A fault captured on the parallel path. */
    struct CapturedTrap {
        DeviceException trap;
        std::exception_ptr other; ///< set instead for non-DeviceException
        uint64_t cta_index = 0;
    };

    /**
     * @param functional Fidelity::Functional fast-forward mode: all
     * cycle charging stays bit-identical (the interpreter reads the
     * live cycle counter through %clock, so architectural state
     * depends on it), but event counting, cache modelling, L2-miss
     * logging, observability counters and PC sampling are skipped.
     * This reuses the passivity contract: the skipped work never
     * feeds back into execution, so memory contents and instruction
     * counts match a full-fidelity run exactly.
     */
    SmExecutor(unsigned sm, const GpuConfig &cfg, mem::DeviceMemory &mem,
               CacheHierarchy &caches, CodeCache &code_cache,
               bool functional = false);

    /**
     * Run one thread block to completion (serial orchestration).
     * @throws DeviceException on faults, fully annotated with the
     * CTA/warp/SM context.
     */
    void runCta(const LaunchParams &lp, const CtaWork &w,
                AtomicGate &gate);

    /**
     * Run this SM's assigned thread blocks (parallel orchestration).
     * Never throws: faults are captured in trap() and @p abort_before
     * is lowered to the trapping CTA's global index so sibling SMs
     * skip every *later* block while still running earlier ones.
     * That guarantees the globally first trap in grid order is always
     * reached, so trap selection is bit-identical to the serial path.
     */
    void runAssigned(const LaunchParams &lp,
                     const std::vector<CtaWork> &ctas, AtomicGate &gate,
                     std::atomic<uint64_t> &abort_before) noexcept;

    LaunchStats &shard() { return shard_; }
    const LaunchStats &shard() const { return shard_; }

    /** Issue + stall cycles accumulated by this SM. */
    uint64_t cycleTotal() const { return cycle_total_; }

    /**
     * Charge post-join L2-replay penalty cycles to this SM as
     * MemDependency stalls, attributed to the access that logged the
     * line; emits PC samples against the committed cycle counter when
     * sampling is on.  Called by the orchestrator in grid order, so
     * the per-SM sample stream stays engine-invariant.
     */
    void addReplayCycles(uint64_t c, uint64_t pc, uint32_t warp,
                         uint64_t cta_index);

    /** Per-StallReason breakdown; sums exactly to cycleTotal(). */
    const std::array<uint64_t, obs::kNumStallReasons> &
    cyclesByReason() const
    {
        return by_reason_;
    }

    /** PC samples emitted so far (committed CTAs + replay), in cycle
     *  order; empty when sampling is disabled. */
    const std::vector<obs::PcSample> &samples() const { return samples_; }

    /** Per-CTA L1-miss lines, in this SM's execution order. */
    const std::vector<std::pair<uint64_t, std::vector<L2LogLine>>> &
    l2Logs() const
    {
        return l2_logs_;
    }

    const std::optional<CapturedTrap> &trap() const { return trap_; }

    // --- Checkpoint/restore (SimPoint fast-forward) -------------------

    /**
     * Committed per-SM state: everything that survives between CTAs.
     * Captured mid-launch by GpuDevice::armCheckpoint and replayed by
     * GpuDevice::resumeLaunch onto a freshly constructed executor.
     */
    struct StateImage {
        LaunchStats shard;
        uint64_t cycle_total = 0;
        std::array<uint64_t, obs::kNumStallReasons> by_reason{};
        uint64_t next_sample = 0;
        std::vector<obs::PcSample> samples;
        std::vector<std::pair<uint64_t, std::vector<L2LogLine>>> l2_logs;
    };

    /**
     * In-flight thread block state, captured at the top of a warp
     * scheduling round (a deterministic point: all per-instruction
     * transients are dead there).  Together with a WarpScheduler
     * rebuilt from the same LaunchParams this resumes the block
     * bit-identically.
     */
    struct MidCtaImage {
        uint64_t round = 0; ///< scheduling round to re-enter at
        WarpScheduler::StateImage sched;
        std::vector<uint8_t> local_mem;
        std::vector<uint8_t> shared_mem;
        uint64_t cta_cycles = 0;
        std::array<uint64_t, obs::kNumStallReasons> cta_by_reason{};
        std::vector<obs::PcSample> cta_samples;
        std::vector<uint8_t> warp_eligible;
        unsigned eligible_warps = 0;
        std::vector<L2LogLine> cur_l2_log;
        uint64_t saved_next_sample = 0;
    };

    /**
     * Fired once at the top of scheduling round @p round of the next
     * runCta on this executor, with the live scheduler.  The hook must
     * be passive (capture only); execution continues unperturbed.
     */
    using CheckpointHook =
        std::function<void(const WarpScheduler &, uint64_t round)>;

    void
    setCheckpointHook(uint64_t round, CheckpointHook hook)
    {
        checkpoint_round_ = round;
        checkpoint_hook_ = std::move(hook);
    }

    /** True if an installed hook has not fired yet (the armed round
     *  was never reached — e.g. the CTA finished first). */
    bool checkpointPending() const { return checkpoint_hook_ != nullptr; }

    StateImage snapshotCommitted() const;
    void restoreCommitted(const StateImage &img);

    /** Capture the running CTA (call from a checkpoint hook only). */
    MidCtaImage snapshotMidCta(const WarpScheduler &sched,
                               uint64_t round) const;

    /** Finish a thread block from its captured mid-round state. */
    void resumeCta(const LaunchParams &lp, const CtaWork &w,
                   AtomicGate &gate, const MidCtaImage &img);

    // MemModel
    void accountGlobalAccess(const GlobalAccess &a) override;
    void accountSharedAccess(const SharedAccess &a) override;
    void atomicFence() override;
    ReductionLog *reductionLog() override;
    ReductionLog &pendingReductions() override { return red_log_; }
    bool functionalMode() const override { return functional_; }

  private:
    enum class StepResult { Progress, Blocked, AllExited };

    /** Shared body of runCta/resumeCta: @p resume null starts fresh,
     *  non-null restores the captured block and re-enters its round. */
    void runCtaFrom(const LaunchParams &lp, const CtaWork &w,
                    AtomicGate &gate, const MidCtaImage *resume);

    /**
     * Issue one warp scheduling slot.  Normally executes a single
     * instruction (@p consumed = 1); with the trace engine on and a
     * compiled superblock at the issue pc, replays the whole trace and
     * reports the number of issue slots it consumed (<= @p budget).
     */
    StepResult stepWarp(WarpScheduler &sched, Interpreter &interp,
                        unsigned w, unsigned budget, unsigned &consumed);

    /**
     * Replay one compiled trace for warp @p w (trace_exec.cpp), whose
     * head stepWarp has fetched.  Entered only under the convergence
     * guard (active set == every live thread) with @p budget > 1.
     * @p exec_mask tracks the issuing lanes for trap annotation.
     * @return issue slots consumed.
     */
    unsigned runTrace(WarpScheduler &sched, Interpreter &interp,
                      unsigned w, const Trace &tr, uint32_t active_mask,
                      unsigned budget, uint32_t &exec_mask);

    const isa::Instruction *fetch(uint64_t pc, isa::Instruction &scratch);
    /** Decode one instruction from memory (misaligned-pc fallback). */
    const isa::Instruction *byteDecode(uint64_t pc,
                                       isa::Instruction &scratch);

    /**
     * Charge @p n cycles of kind @p r to the running CTA.  This is the
     * only way cta_cycles_ grows, which is what keeps the per-reason
     * breakdown summing exactly to the cycle scalar.  With sampling
     * off the extra cost is one member load and a not-taken branch
     * (the documented disabled-cost contract; see micro_core).
     */
    void
    chargeCycles(uint64_t n, obs::StallReason r, uint64_t pc, unsigned w)
    {
        cta_cycles_ += n;
        cta_by_reason_[static_cast<size_t>(r)] += n;
        if (sample_period_ != 0)
            sampleTick(r, pc, w);
    }

    /** Emit samples for every period crossing up to the current cycle
     *  (out of line: keeps the disabled hot path small). */
    void sampleTick(obs::StallReason r, uint64_t pc, unsigned w);

    /**
     * Charge and count one issue slot of @p op at @p pc for warp @p w,
     * whose @p exec_mask lanes of @p active_mask pass the guard.  In
     * order: the RAW bubble (@p raw_stall), the issue cycle and the
     * instruction counts, the per-opcode counts and per-instruction
     * events (pure observability, skipped in Functional fidelity), then
     * both watchdogs.  Every engine issues through here, so their
     * counts agree by construction.
     */
    void
    issueSlot(isa::Opcode op, uint64_t pc, unsigned w, bool raw_stall,
              uint32_t active_mask, uint32_t exec_mask)
    {
        if (raw_stall)
            chargeCycles(1, obs::StallReason::ExecDependency, pc, w);
        ++shard_.warp_instrs;
        chargeCycles(1, obs::StallReason::None, pc, w);
        const unsigned n_exec = std::popcount(exec_mask);
        shard_.thread_instrs += n_exec;
        if (!functional_) {
            shard_.warp_instrs_by_op[static_cast<size_t>(op)] += 1;
            shard_.thread_instrs_by_op[static_cast<size_t>(op)] += n_exec;
            using obs::HwEvent;
            obs::EventSet &ev = shard_.events;
            ev.add(HwEvent::InstExecuted, 1);
            ev.add(HwEvent::ThreadInstExecuted, std::popcount(active_mask));
            ev.add(HwEvent::ThreadInstNotPredicatedOff, n_exec);
            ev.add(HwEvent::EligibleWarpsSum, eligible_warps_);
        }
        // Per-SM cycle streams are identical in all four engine
        // configurations, so a watchdog fires on the same instruction
        // in each.
        if (shard_.warp_instrs > cfg_.max_warp_instrs_per_launch ||
            cycle_total_ + cta_cycles_ > cfg_.watchdog_cycles)
            watchdogTrap(pc);
    }

    /** Throw the watchdog that issueSlot found exceeded. */
    [[noreturn]] void watchdogTrap(uint64_t pc) const;

    /**
     * First annotation layer of a trap raised while warp @p w issued:
     * the warp, its lanes (@p exec_mask, or @p active_mask when the
     * guard was not evaluated yet) and the lowest such lane's return
     * stack, for trampoline/tool-function attribution in the core.
     */
    static void annotateTrap(DeviceException &e, unsigned w,
                             const ThreadCtx *warp, uint32_t active_mask,
                             uint32_t exec_mask);

    /** Update warp @p w's last-observed issuability (eligible-warps
     *  event accounting; see warp_eligible_). */
    void
    noteWarpReadiness(unsigned w, bool eligible)
    {
        const uint8_t v = eligible ? 1 : 0;
        if (w < warp_eligible_.size() && warp_eligible_[w] != v) {
            warp_eligible_[w] = v;
            if (v)
                ++eligible_warps_;
            else
                --eligible_warps_;
        }
    }

    /** One crossing: record the charged warp plus sibling records for
     *  every other resident warp (not_selected / barrier_sync). */
    void recordSample(uint64_t cycle, obs::StallReason r, uint64_t pc,
                      unsigned w);

    unsigned sm_;
    const GpuConfig &cfg_;
    mem::DeviceMemory &mem_;
    CacheHierarchy &caches_;
    CodeCache &code_cache_;
    size_t ib_;
    unsigned ib_shift_; ///< log2(ib_): page index by shift, not div
    /** Functional fast-forward: skip events/caches/sampling (see ctor). */
    bool functional_ = false;

    /** One-shot mid-CTA capture (see setCheckpointHook). */
    CheckpointHook checkpoint_hook_;
    uint64_t checkpoint_round_ = 0;

    LaunchStats shard_;
    uint64_t cycle_total_ = 0;
    /** Cycle counter of the block currently running (read by %clock). */
    uint64_t cta_cycles_ = 0;
    /** Committed per-reason cycles; sums to cycle_total_. */
    std::array<uint64_t, obs::kNumStallReasons> by_reason_{};
    /** Running CTA's per-reason cycles; folded in on CTA completion,
     *  discarded on a trap (mirrors cta_cycles_ handling). */
    std::array<uint64_t, obs::kNumStallReasons> cta_by_reason_{};

    /** Sampling state (0 period = off). */
    uint64_t sample_period_ = 0;
    uint64_t next_sample_ = 0;
    /** next_sample_ at runCta entry, restored when the CTA traps. */
    uint64_t saved_next_sample_ = 0;
    std::vector<obs::PcSample> samples_;     ///< committed
    std::vector<obs::PcSample> cta_samples_; ///< running CTA
    /** Scheduler of the running CTA (sibling-warp records). */
    const WarpScheduler *cur_sched_ = nullptr;

    /** (pc, warp) of the instruction currently in interp.execute,
     *  for attribution from MemModel callbacks. */
    uint64_t cur_pc_ = 0;
    uint32_t cur_warp_ = 0;

    /** Last-observed issuability per resident warp of the running CTA
     *  (1 = last step issued, 0 = blocked/exited), plus the popcount.
     *  Feeds the eligible_warps_sum event at every issue slot. */
    std::vector<uint8_t> warp_eligible_;
    unsigned eligible_warps_ = 0;

    /** Fast path: the page the last fetch came from. */
    const PredecodedImage *cached_page_ = nullptr;

    /** SoA scratch for strip execution: kMaxSlots x kWarpSize lanes. */
    std::vector<uint32_t> strip_regs_;
    std::array<uint8_t, kWarpSize> strip_preds_{};

    /** Current CTA context (valid while runCta is on the stack). */
    const CtaWork *cur_cta_ = nullptr;
    AtomicGate *gate_ = nullptr;
    /** The running CTA is the commit head: its reductions apply
     *  directly.  Until then they go to red_log_. */
    bool head_ = false;
    ReductionLog red_log_;
    std::vector<L2LogLine> cur_l2_log_;
    std::vector<std::pair<uint64_t, std::vector<L2LogLine>>> l2_logs_;

    /** Reused per-CTA backing stores. */
    std::vector<uint8_t> local_;
    std::vector<uint8_t> shared_;

    std::optional<CapturedTrap> trap_;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_SM_HPP
