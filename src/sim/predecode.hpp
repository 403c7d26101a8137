/**
 * @file
 * Shared predecode cache: page-grained arrays of decoded instructions.
 *
 * The interpreter hot loop used to call isa::decode on raw bytes for
 * every dynamic instruction.  The predecode cache applies NVBit's
 * central amortisation lesson (instrumented functions are generated
 * once and reused across launches, paper §4) to the execution layer:
 * each 4 KiB page of device memory is decoded at most once and every
 * SM then fetches `isa::Instruction` records by PC index.
 *
 * Coherence follows real-hardware instruction-cache semantics: pages
 * are invalidated when the *host side* writes device memory (module
 * load, trampoline patching, code swapping — wired up through
 * mem::DeviceMemory's write observer plus explicit calls from the
 * NVBit core), while device-side stores do NOT invalidate.  Code that
 * writes its own instructions must request an explicit flush, exactly
 * as on the real device.
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

/** One predecoded page: entries indexed by (pc - base) / instrBytes. */
struct PredecodedImage {
    mem::DevPtr base = 0;
    std::vector<PredecodedEntry> entries;
};

/**
 * Device-wide predecode cache.
 *
 * Lookup is lock-free (one atomic pointer load per page); building a
 * missing page takes a mutex with double-checked locking so parallel
 * SMs that fault on the same page decode it once.  Invalidation moves
 * pages to a retired list instead of freeing them, because an SM
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

    /** Pages decoded since construction (monotonic, includes rebuilds). */
    uint64_t pagesBuilt() const { return pages_built_.load(); }
    /** Pages dropped by invalidation since construction. */
    uint64_t invalidations() const { return invalidations_.load(); }
    /** Pages currently resident. */
    size_t residentPages() const;

  private:
    PredecodedImage *buildPage(mem::DevPtr base) const;

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

    std::atomic<uint64_t> pages_built_{0};
    std::atomic<uint64_t> invalidations_{0};
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_CODE_CACHE_HPP
