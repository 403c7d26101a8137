/**
 * @file
 * Shadow state for sanitizer-style correctness checking of the flat
 * simulated device memory (docs/observability.md, "Correctness
 * checking").
 *
 * Two bits are tracked per device byte:
 *
 *  - *addressable*: the byte lies inside a live allocation.  Cleared
 *    on free, so use-after-free and out-of-bounds accesses that land
 *    in allocator gaps or freed blocks are caught even though they
 *    stay inside the storage array.  Red zones are shadow-only: the
 *    allocator's alignment padding and the free space between blocks
 *    are simply never addressable.  No physical padding is inserted —
 *    that would shift allocation addresses and change cache behaviour,
 *    violating the sanitizer's passivity contract.
 *  - *initialized*: the byte has been written since its allocation —
 *    by a host-side write (cuMemcpy/module load), a simulated device
 *    store, or a checkpoint restore (conservatively: restored images
 *    count as fully initialized).
 *
 * The allocation registry additionally keeps freed blocks (until their
 * address range is reused) so out-of-bounds and use-after-free reports
 * can name the nearest allocation with live/freed provenance.
 *
 * The flag bytes, one per device byte, start zero (unaddressable,
 * uninitialized) and are zero-filled on first touch like the device
 * memory itself (zeroed_bytes.hpp): attaching a shadow writes nothing,
 * and its resident memory follows the allocations a run makes.
 *
 * Thread-safety: flag bytes are accessed as relaxed atomics
 * (std::atomic_ref) — parallel-engine SMs may mark the same flag
 * concurrently (grid-order-fenced atomics, plain stores from disjoint
 * CTAs), and the end state is the same either way.  The registry
 * mutates only on host-side alloc/free paths and is read on the (rare)
 * violation path, both under a mutex.
 */
#ifndef NVBIT_MEM_SHADOW_MEMORY_HPP
#define NVBIT_MEM_SHADOW_MEMORY_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

#include "mem/zeroed_bytes.hpp"

namespace nvbit::mem {

using DevPtr = uint64_t;

class ShadowMemory
{
  public:
    /** Provenance record for one (possibly freed) allocation. */
    struct AllocInfo {
        DevPtr base = 0;
        size_t bytes = 0;
        /** 1-based allocation order, for "allocation #N" reports. */
        uint64_t seq = 0;
        bool live = false;
    };

    explicit ShadowMemory(size_t bytes);

    size_t size() const { return size_; }

    /** A block became live: addressable, nothing initialized yet. */
    void onAlloc(DevPtr base, size_t bytes);

    /** A block was freed: unaddressable; provenance kept until the
     *  address range is handed out again. */
    void onFree(DevPtr base, size_t bytes);

    /** Mark [addr, addr+bytes) written (host writes, device stores,
     *  restored images).  Out-of-range tails are clamped. */
    void markInitialized(DevPtr addr, size_t bytes);

    /** True when every byte of the range is inside a live allocation.
     *  On failure @p first_bad (if non-null) gets the first bad byte. */
    bool rangeAddressable(DevPtr addr, size_t bytes,
                          DevPtr *first_bad = nullptr) const;

    /** True when every byte of the range has been written.  On failure
     *  @p first_bad (if non-null) gets the first unwritten byte. */
    bool rangeInitialized(DevPtr addr, size_t bytes,
                          DevPtr *first_bad = nullptr) const;

    /** Closest allocation record to @p addr (live or freed); false
     *  when nothing has ever been allocated. */
    bool nearestAlloc(DevPtr addr, AllocInfo &out) const;

    /**
     * Rebuild shadow state after a checkpoint restore: every byte of
     * every live block becomes addressable AND initialized (the image
     * was captured from a running program, so its contents are real),
     * everything else unaddressable.  Pre-restore provenance is
     * discarded; sequence numbers restart relative to the restore.
     */
    void rebuildFromLive(const std::map<DevPtr, size_t> &live_blocks);

  private:
    static constexpr uint8_t kAddressable = 1 << 0;
    static constexpr uint8_t kInitialized = 1 << 1;

    void setFlags(DevPtr addr, size_t bytes, uint8_t set, uint8_t clear);

    std::atomic_ref<uint8_t>
    flag(size_t i) const
    {
        return std::atomic_ref<uint8_t>(flags_[i]);
    }

    ZeroedBytes flags_;
    size_t size_;
    mutable std::mutex mu_;
    /** By base address; freed records retained for provenance. */
    std::map<DevPtr, AllocInfo> allocs_;
    uint64_t next_seq_ = 1;
};

} // namespace nvbit::mem

#endif // NVBIT_MEM_SHADOW_MEMORY_HPP
