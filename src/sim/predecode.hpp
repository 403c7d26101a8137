/**
 * @file
 * Shared code cache: page-grained arrays of decoded instructions, plus
 * the superblock traces compiled from them.
 *
 * The interpreter hot loop used to call isa::decode on raw bytes for
 * every dynamic instruction.  The predecode cache applies NVBit's
 * central amortisation lesson (instrumented functions are generated
 * once and reused across launches, paper §4) to the execution layer:
 * each 4 KiB page of device memory is decoded at most once and every
 * SM then fetches `isa::Instruction` records by PC index.  With the
 * trace engine on, a page also holds the traces compiled from its own
 * decoded entries (sim/trace_compiler.hpp), so everything derived from
 * a page's bytes is dropped together.
 *
 * Coherence follows real-hardware instruction-cache semantics: pages
 * are invalidated when the *host side* writes device memory (module
 * load, trampoline patching, code swapping — wired up through
 * mem::DeviceMemory's write observer plus explicit calls from the
 * NVBit core), while device-side stores do NOT invalidate.  Code that
 * writes its own instructions must request an explicit flush, exactly
 * as on the real device.  Inline-probe registry changes retire the
 * traced pages they affect the same way.
 */
#ifndef NVBIT_SIM_CODE_CACHE_HPP
#define NVBIT_SIM_CODE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "isa/arch.hpp"
#include "mem/device_memory.hpp"
#include "sim/trace_compiler.hpp"

namespace nvbit::sim {

/** Outcome of predecoding one instruction slot. */
enum class PredecodeStatus : uint8_t {
    Valid,    ///< `in` holds the decoded instruction
    Illegal,  ///< bytes exist but the opcode field is out of range
    Unmapped, ///< the slot extends beyond mapped device memory
};

/** One decoded instruction slot. */
struct PredecodedEntry {
    isa::Instruction in{};
    PredecodeStatus status = PredecodeStatus::Unmapped;
};

/** The trace slots of one predecoded page (CodeCache::trace). */
struct PageTraces {
    explicit PageTraces(size_t n) : slots(n) {}

    /** One per entry: null = not compiled yet, CodeCache's sentinel =
     *  no worthwhile trace starts there, else the trace entered there. */
    std::vector<std::atomic<const Trace *>> slots;
    /** The traces compiled from the page (guarded by the fill mutex). */
    std::vector<std::unique_ptr<Trace>> owned;
};

/** One predecoded page: entries indexed by (pc - base) / instrBytes. */
struct PredecodedImage {
    mem::DevPtr base = 0;
    std::vector<PredecodedEntry> entries;
    /** Owned trace slots, allocated on the page's first trace request
     *  (so never with traces off) and freed with the page. */
    mutable std::atomic<PageTraces *> traces{nullptr};

    PredecodedImage() = default;
    PredecodedImage(const PredecodedImage &) = delete;
    PredecodedImage &operator=(const PredecodedImage &) = delete;
    ~PredecodedImage() { delete traces.load(std::memory_order_relaxed); }
};

/**
 * Device-wide code cache.
 *
 * Lookup is lock-free (one atomic pointer load per page, two more for a
 * trace); building a missing page or trace takes a mutex with
 * double-checked locking so parallel SMs that fault on the same page
 * decode or compile it once.  Invalidation moves pages, with their
 * traces, to a retired list instead of freeing them, because an SM
 * thread may still hold a raw pointer from a previous fetch; retired
 * pages are reclaimed via collectRetired() at the next launch
 * boundary, when no execution threads exist.
 */
class CodeCache
{
  public:
    /** Predecode granularity.  Divisible by both instruction widths. */
    static constexpr size_t kPageBytes = 4096;

    CodeCache(const mem::DeviceMemory &mem, isa::ArchFamily fam);

    /** @return the page base address containing @p pc. */
    static mem::DevPtr
    pageBase(mem::DevPtr pc)
    {
        return pc & ~static_cast<mem::DevPtr>(kPageBytes - 1);
    }

    /**
     * Get the predecoded page containing @p pc, building it on first
     * touch.  @return nullptr when @p pc lies entirely outside device
     * memory.  The pointer stays valid until the next collectRetired().
     */
    const PredecodedImage *acquire(mem::DevPtr pc);

    /**
     * Get the trace entered at the aligned @p pc of @p page, compiling
     * it from the page's entries on first request.  @return nullptr
     * when no worthwhile trace starts there (the negative result is
     * cached too).  The pointer lives as long as the page.
     */
    const Trace *trace(const PredecodedImage &page, mem::DevPtr pc);

    /** Drop predecoded state overlapping [addr, addr+bytes). */
    void invalidateRange(mem::DevPtr addr, size_t bytes);

    /** Drop all predecoded state (full icache flush). */
    void invalidateAll();

    /** Eagerly build every page overlapping [addr, addr+bytes). */
    void prewarm(mem::DevPtr addr, size_t bytes);

    /**
     * Free retired pages.  Call only when no simulation threads are
     * running (e.g. at the start of a launch).
     */
    void collectRetired();

    /**
     * Register an inlineable instrumentation callsite.  Replaces any
     * probe previously registered at the same pc and retires the
     * callsite's page if it holds traces, so they recompile with the
     * probe inlined.
     */
    void registerProbe(const InlineProbe &probe);

    /** Drop probes whose callsite lies in [addr, addr+bytes), retiring
     *  the traced pages they covered. */
    void clearProbesInRange(mem::DevPtr addr, size_t bytes);

    /** Registered inline-probe callsites (test introspection). */
    size_t probeCount() const;

    /** Pages decoded since construction (monotonic, includes rebuilds). */
    uint64_t pagesBuilt() const { return pages_built_.load(); }
    /** Pages dropped by invalidation since construction. */
    uint64_t invalidations() const { return invalidations_.load(); }
    /** Pages currently resident. */
    size_t residentPages() const;

    /** Traces compiled since construction (includes recompiles). */
    uint64_t tracesBuilt() const { return traces_built_.load(); }
    /** Compiled traces on resident pages (sentinels excluded). */
    size_t residentTraces() const;
    /** The resident trace entered at @p pc, or nullptr; never builds
     *  (test introspection). */
    const Trace *residentTrace(mem::DevPtr pc) const;

  private:
    PredecodedImage *buildPage(mem::DevPtr base) const;
    /** Move the page in @p slot, if any, to the retired list (holding
     *  fill_mu_). */
    void retireLocked(size_t slot);
    /** Retire the page holding @p pc if it holds traces (holding
     *  fill_mu_): a probe change leaves decoded entries valid. */
    void retireTracedLocked(mem::DevPtr pc);

    const mem::DeviceMemory &mem_;
    isa::ArchFamily fam_;
    size_t ib_;

    /** One slot per device page; nullptr = not predecoded. */
    std::vector<std::atomic<PredecodedImage *>> slots_;
    mutable std::mutex fill_mu_;
    /** Live pages, keyed by slot index (guarded by fill_mu_). */
    std::unordered_map<size_t, std::unique_ptr<PredecodedImage>> owned_;
    /** Invalidated pages awaiting reclamation (guarded by fill_mu_). */
    std::vector<std::unique_ptr<PredecodedImage>> retired_;
    /** Inline probes keyed by callsite pc (guarded by fill_mu_). */
    ProbeMap probes_;

    std::atomic<uint64_t> pages_built_{0};
    std::atomic<uint64_t> invalidations_{0};
    std::atomic<uint64_t> traces_built_{0};
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_CODE_CACHE_HPP
