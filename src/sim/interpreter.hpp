/**
 * @file
 * Interpreter layer: architectural execution of one warp instruction.
 *
 * The interpreter is purely functional with respect to the timing
 * model — it updates thread state and memory, and reports
 * global-memory traffic and atomic commits through the MemModel
 * interface so the SM layer can charge caches and order cross-CTA
 * atomics without the interpreter knowing about threading.
 */
#ifndef NVBIT_SIM_INTERPRETER_HPP
#define NVBIT_SIM_INTERPRETER_HPP

#include <cstdint>
#include <set>
#include <vector>

#include "isa/instruction.hpp"
#include "mem/device_memory.hpp"
#include "obs/events.hpp"
#include "sim/config.hpp"
#include "sim/launch.hpp"
#include "sim/warp_scheduler.hpp"

namespace nvbit::obs {
struct SanitizerFinding;
} // namespace nvbit::obs

namespace nvbit::sim {

class ReductionLog;

/**
 * One warp-level global-memory access, as observed by the interpreter
 * while it executed the lanes.  Traffic is recorded at 32-byte sector
 * granularity (obs::kSectorBytes); the SM layer derives cache lines
 * from the sorted sector set, which preserves the exact L1 access
 * stream the line-based accounting produced.
 */
struct GlobalAccess {
    enum class Kind : uint8_t { Load, Store, Atomic };

    Kind kind = Kind::Load;
    /** Unique sector base addresses touched (each lane contributes the
     *  sector of its base address, matching the instrumentation-side
     *  probe in tools/mem_divergence). */
    std::set<uint64_t> sectors;
    /** Guard-passed lanes that participated. */
    uint32_t lanes = 0;
    /** Bytes requested across lanes (lanes x access width). */
    uint32_t bytes = 0;
};

/**
 * One warp-level shared-memory access with its bank-serialisation
 * cost already computed by the interpreter (32 banks of 4-byte words;
 * lanes reading the same word broadcast for free).
 */
struct SharedAccess {
    bool write = false;
    /** Guard-passed lanes. */
    uint32_t lanes = 0;
    /** Bank-serialised transactions (>= 1; conflicts add extras). */
    uint32_t transactions = 0;
};

/**
 * Memory-system callbacks the SM layer provides to the interpreter.
 */
class MemModel
{
  public:
    /** Charge the cache/timing model for one warp global access. */
    virtual void accountGlobalAccess(const GlobalAccess &a) = 0;

    /** Charge the shared-memory bank model for one warp access.
     *  Strictly passive: events only, never simulated cycles. */
    virtual void accountSharedAccess(const SharedAccess &a) = 0;

    /**
     * Make the running thread block the commit head: block until every
     * thread block with a smaller global index has retired, then
     * commit this block's own pending reductions.  Called before a
     * returning ATOM's read-modify-write and before a plain access
     * that overlaps a pending reduction, which serialises atomics in
     * grid order and keeps parallel results bit-identical to serial
     * ones.
     */
    virtual void atomicFence() = 0;

    /**
     * Where the running block's next reduction goes: nullptr once it
     * is the commit head (apply it now; becoming head commits the
     * block's log first), otherwise the block's log, committed in grid
     * order after it retires.  Never blocks.
     */
    virtual ReductionLog *reductionLog() = 0;

    /** The running block's uncommitted reductions (the last block's
     *  after it retires, traps or is skipped). */
    virtual ReductionLog &pendingReductions() = 0;

    /**
     * True while the SM runs at Fidelity::Functional (SimPoint
     * fast-forward).  The sanitizer quiesces there, like every other
     * observability plane: shadow state stays maintained through the
     * store path, but no findings are recorded for skipped intervals.
     */
    virtual bool functionalMode() const { return false; }

  protected:
    ~MemModel() = default;
};

/** Executes decoded instructions for one resident thread block. */
class Interpreter
{
  public:
    /**
     * @param local   backing store of nthreads * lp.local_bytes bytes
     * @param shared  backing store of lp.shared_bytes bytes
     * @param cycles  the SM's running cycle counter (read by %clock)
     */
    Interpreter(const GpuConfig &cfg, mem::DeviceMemory &mem,
                const LaunchParams &lp, unsigned sm,
                const uint32_t ctaid[3], std::vector<uint8_t> &local,
                std::vector<uint8_t> &shared, const uint64_t &cycles,
                MemModel &mm);

    /**
     * Execute one warp instruction.  @p warp points at the 32 thread
     * contexts; active threads have already been advanced to
     * @p next_pc (control flow overrides that here).
     * @throws DeviceException on faults.
     */
    void execute(const isa::Instruction &in, ThreadCtx *warp,
                 uint32_t active_mask, uint32_t exec_mask, uint64_t pc,
                 uint64_t next_pc);

    /**
     * Close the shared-memory race-detection epoch: the SM layer calls
     * this when the CTA's barrier releases, so hazards are only
     * reported between accesses with no intervening __syncthreads
     * (the happens-before model of docs/observability.md).
     */
    void onBarrierRelease();

  private:
    /** How a global access uses memory, for the sanitizer hooks. */
    enum class SanAccess : uint8_t { Read, Write, Atomic, Reduction };

    [[noreturn]] void memTrap(uint64_t addr, uint64_t pc, MemSpace space,
                              bool write, bool misaligned = false);
    /** Trap exactly as loadGlobal would, without the access. */
    void checkGlobal(uint64_t addr, unsigned bytes, uint64_t pc);
    /** Commit this block's pending reductions first if any lane of
     *  plain access @p in overlaps one (own-CTA coherence). */
    void commitOverlapping(const isa::Instruction &in,
                           const ThreadCtx *warp, uint32_t exec_mask);
    uint64_t loadGlobal(uint64_t addr, unsigned bytes, uint64_t pc);
    void storeGlobal(uint64_t addr, unsigned bytes, uint64_t v,
                     uint64_t pc);
    uint8_t *localPtr(const ThreadCtx &t, uint64_t addr, unsigned bytes,
                      uint64_t pc, bool write);
    uint8_t *sharedPtr(uint64_t addr, unsigned bytes, uint64_t pc,
                       bool write);
    uint32_t specialReg(const ThreadCtx &t, isa::SpecialReg sr) const;
    uint64_t constRead(const isa::Instruction &in, uint64_t pc) const;

    // --- Sanitizer hooks (docs/observability.md) ----------------------
    // Called before the architectural access, off the fast path (the
    // call sites are gated on sancheck_ != 0).  Strictly passive: they
    // never charge cycles or touch counters; on a violation they
    // record a structured finding and, under NVBIT_SIM_SANCHECK_FATAL,
    // throw a SanitizerError DeviceException instead of returning.
    void sancheckGlobal(const ThreadCtx &t, uint64_t addr,
                        unsigned bytes, uint64_t pc, SanAccess acc);
    void sancheckShared(const ThreadCtx &t, uint64_t addr,
                        unsigned bytes, uint64_t pc, bool is_write);
    void sancheckBarrier(const ThreadCtx *warp, uint32_t exec_mask,
                         uint64_t pc);
    /** Fill context, hand to obs::Sanitizer, throw when promoted. */
    void sancheckEmit(obs::SanitizerFinding &&f, const ThreadCtx &t);

    const GpuConfig &cfg_;
    mem::DeviceMemory &mem_;
    const LaunchParams &lp_;
    unsigned sm_;
    uint32_t ctaid_[3];
    /** Sector granularity for global-access accounting: 32 bytes,
     *  clamped to the cache-line size for exotic sub-sector configs. */
    unsigned sector_bytes_;
    std::vector<uint8_t> &local_;
    std::vector<uint8_t> &shared_;
    const uint64_t &cycles_;
    MemModel &mm_;

    /** Enabled sanitizer checks (GpuConfig.sancheck_mask) and the
     *  device's shadow state (null when the sanitizer is off). */
    uint32_t sancheck_;
    mem::ShadowMemory *shadow_;
    /**
     * Racecheck: per-4-byte-word last-toucher cells for this CTA's
     * shared memory, cleared at every barrier release.  Warp ids are
     * stored +1 so 0 means "untouched this epoch".  Per-CTA and driven
     * by the deterministic intra-CTA schedule, so hazard streams are
     * engine-independent.  Sized lazily on first shared access.
     */
    struct RaceCell {
        uint32_t writer = 0;
        uint32_t reader = 0;
        uint64_t writer_pc = 0;
        uint64_t reader_pc = 0;
    };
    std::vector<RaceCell> race_cells_;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_INTERPRETER_HPP
