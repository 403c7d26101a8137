/**
 * @file
 * Device-wide trace cache: compiled superblocks indexed by entry pc.
 *
 * Mirrors CodeCache's concurrency structure (lock-free lookup, a fill
 * mutex with double-checked locking, retire-instead-of-free) but at
 * superblock granularity: each instruction slot of a 4 KiB page can
 * hold one compiled Trace.  Slots are filled lazily on first hot entry
 * and a "compiled, not worthwhile" sentinel stops the compiler being
 * re-run for pcs that cannot form a useful trace.
 *
 * The cache also owns the inline-probe registry: the NVBit core
 * registers an InlineProbe for every instrumentation callsite whose
 * tool function matches a declared inline shape, and the compiler
 * consults a snapshot of that registry while building.  Any registry
 * change, like any code write, retires the affected pages and bumps
 * the generation counter so per-SM memoised lookups refresh.
 */
#ifndef NVBIT_SIM_TRACE_CACHE_HPP
#define NVBIT_SIM_TRACE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/opcodes.hpp"
#include "sim/trace_compiler.hpp"

namespace nvbit::sim {

class TraceCache
{
  public:
    static constexpr size_t kPageBytes = TraceCompiler::kPageBytes;

    TraceCache(const mem::DeviceMemory &mem, isa::ArchFamily fam);

    /**
     * Get the compiled trace entered at @p pc, compiling on first
     * touch.  @return nullptr when no worthwhile trace starts there
     * (the negative result is cached too).  The pointer stays valid
     * until the next collectRetired().
     */
    const Trace *acquire(mem::DevPtr pc);

    /** Drop traces on pages overlapping [addr, addr+bytes). */
    void invalidateRange(mem::DevPtr addr, size_t bytes);

    /** Drop every trace (full flush). */
    void invalidateAll();

    /** Free retired pages.  Call only at launch boundaries. */
    void collectRetired();

    /**
     * Register an inlineable instrumentation callsite.  Replaces any
     * probe previously registered at the same pc and retires traces
     * covering it so they recompile with the probe inlined.
     */
    void registerProbe(const InlineProbe &probe);

    /** Drop probes whose callsite lies in [addr, addr+bytes). */
    void clearProbesInRange(mem::DevPtr addr, size_t bytes);

    /** Registered inline-probe callsites (test introspection). */
    size_t probeCount() const;

    /**
     * Monotonic counter bumped by every invalidation or probe-registry
     * change; SMs pair it with a cached Trace pointer to memoise
     * lookups without re-touching the atomic slot array.
     */
    uint64_t
    generation() const
    {
        return gen_.load(std::memory_order_acquire);
    }

    /** Traces compiled since construction (includes recompiles). */
    uint64_t tracesBuilt() const { return traces_built_.load(); }
    /** Pages retired by invalidation since construction. */
    uint64_t invalidations() const { return invalidations_.load(); }
    /** Compiled traces currently resident (sentinels excluded). */
    size_t residentTraces() const;
    /** The resident trace entered at @p pc, or nullptr; never compiles
     *  (test introspection). */
    const Trace *resident(mem::DevPtr pc) const;

  private:
    /** One page of trace slots, retired wholesale on invalidation. */
    struct Page {
        mem::DevPtr base = 0;
        /** One slot per instruction: null = never compiled, the
         *  sentinel = compiled but not worthwhile, else the trace. */
        std::vector<std::atomic<const Trace *>> slots;
        /** Owned traces (mutated under fill_mu_ only). */
        std::vector<std::unique_ptr<Trace>> owned;

        explicit Page(mem::DevPtr b, size_t nslots)
            : base(b), slots(nslots)
        {}
    };

    /** "Compiled, nothing worthwhile here" slot marker. */
    static const Trace *
    noTrace()
    {
        return reinterpret_cast<const Trace *>(uintptr_t{1});
    }

    TraceCompiler compiler_;
    size_t ib_;

    std::vector<std::atomic<Page *>> pages_;
    mutable std::mutex fill_mu_;
    /** Live pages keyed by page index (guarded by fill_mu_). */
    std::unordered_map<size_t, std::unique_ptr<Page>> owned_;
    /** Retired pages awaiting reclamation (guarded by fill_mu_). */
    std::vector<std::unique_ptr<Page>> retired_;

    mutable std::mutex probe_mu_;
    /** Inline probes keyed by callsite pc (guarded by probe_mu_). */
    std::map<uint64_t, InlineProbe> probes_;

    std::atomic<uint64_t> gen_{0};
    std::atomic<uint64_t> traces_built_{0};
    std::atomic<uint64_t> invalidations_{0};
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_TRACE_CACHE_HPP
