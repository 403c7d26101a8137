/**
 * @file
 * Simulated GPU device memory with a first-fit allocator.
 *
 * All device addresses are plain 64-bit offsets into one flat region.
 * Address 0 is never handed out so that null-pointer dereferences trap.
 * Code for kernels and NVBit trampolines is allocated from the same
 * region; the SM5x JMP encoding can address up to 128 MiB, so the
 * default device size stays below that bound.
 *
 * The region is zero-filled on first touch (zeroed_bytes.hpp), so
 * constructing a device writes nothing and host resident memory
 * follows the bytes a run actually touches, not the device size.
 * Snapshot and restore still copy the whole region.
 */
#ifndef NVBIT_MEM_DEVICE_MEMORY_HPP
#define NVBIT_MEM_DEVICE_MEMORY_HPP

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "mem/zeroed_bytes.hpp"

namespace nvbit::mem {

class ShadowMemory;

/** Device address type (mirrors CUdeviceptr). */
using DevPtr = uint64_t;

/**
 * Flat simulated device memory plus allocator.
 *
 * Loads/stores are bounds-checked; out-of-range accesses throw
 * MemFault so the simulator can surface them as the GPU equivalent of
 * an illegal-address error.
 */
class DeviceMemory
{
  public:
    /** Thrown on out-of-bounds or misaligned device accesses. */
    struct MemFault {
        DevPtr addr;
        size_t bytes;
        bool is_write;
        /** Natural-alignment violation in a sized accessor (read32/
         *  write64/...) rather than an out-of-range address. */
        bool misaligned = false;
    };

    /** Default device size: 96 MiB (< 128 MiB JMP reach on SM5x). */
    static constexpr size_t kDefaultSize = 96ull << 20;

    /**
     * Observer for host-side mutations (bulk write() and
     * mutableView()).  The simulator registers one to invalidate
     * predecoded code pages when the driver or NVBit core rewrites
     * code.  Simulated stores (write32/write64 from STG/ATOM) do NOT
     * fire it: like real hardware, the instruction cache is incoherent
     * with device-side writes and requires an explicit flush.
     */
    using WriteObserver = std::function<void(DevPtr, size_t)>;

    /** All @p size bytes read zero until written. */
    explicit DeviceMemory(size_t size = kDefaultSize);

    size_t size() const { return size_; }

    /**
     * Allocate @p bytes with the given alignment.
     * @return the device address; panics when out of memory (the
     * driver layer translates a failed tryAlloc into CUresult instead).
     */
    DevPtr alloc(size_t bytes, size_t align = 256);

    /** Like alloc() but returns 0 on exhaustion instead of panicking. */
    DevPtr tryAlloc(size_t bytes, size_t align = 256);

    /** Free a block previously returned by alloc(). */
    void free(DevPtr addr);

    /** Total bytes currently allocated. */
    size_t bytesAllocated() const { return bytes_allocated_; }

    // --- Bounds-checked access ---------------------------------------

    void read(DevPtr addr, void *out, size_t bytes) const;
    void write(DevPtr addr, const void *in, size_t bytes);

    /** True if [addr, addr + bytes) lies inside the usable region —
     *  the range check every accessor applies before touching it. */
    bool inRange(DevPtr addr, size_t bytes) const;

    /** Naturally aligned word accessors, the way simulated loads,
     *  stores, atomics, reduction commits and inline probes reach
     *  memory.  Relaxed atomics: parallel SMs may touch one word at
     *  once without a host data race. */
    uint32_t read32(DevPtr addr) const;
    uint64_t read64(DevPtr addr) const;
    void write32(DevPtr addr, uint32_t v);
    void write64(DevPtr addr, uint64_t v);

    /**
     * Raw view of a range (e.g. for the disassembler/lifter reading a
     * whole function body).  Throws MemFault if out of range.
     */
    std::span<const uint8_t> view(DevPtr addr, size_t bytes) const;
    std::span<uint8_t> mutableView(DevPtr addr, size_t bytes);

    /** Install (or clear, with nullptr) the host-write observer. */
    void setWriteObserver(WriteObserver obs) { observer_ = std::move(obs); }

    /**
     * Attach (or detach, with nullptr) sanitizer shadow state.  When
     * attached, allocator events and every write path — bulk host
     * writes, mutableView, the sized device-store accessors write32/
     * write64 (the single path STG/STL/ATOM and the trace engine's
     * inline probes store through), and restore() — keep the shadow's
     * addressable/initialized bits current.  The memory's own
     * behaviour is unchanged: shadow upkeep never affects placement,
     * contents, or fault behaviour.
     */
    void attachShadow(ShadowMemory *shadow) { shadow_ = shadow; }
    ShadowMemory *shadow() const { return shadow_; }

    // --- Checkpoint / restore ----------------------------------------

    /**
     * Value snapshot of the whole memory system: the flat storage image
     * plus the allocator's free/live maps, so a restore rewinds both
     * contents and future alloc() placement decisions.
     */
    struct Image {
        std::vector<uint8_t> storage;
        std::map<DevPtr, size_t> free_blocks;
        std::map<DevPtr, size_t> live_blocks;
        size_t bytes_allocated = 0;
    };

    Image snapshot() const;

    /**
     * Restore a snapshot taken on a same-sized device.  Does NOT fire
     * the write observer: callers owning derived caches (predecoded
     * code, traces) must invalidate them explicitly — the simulator's
     * GpuDevice::restore() does.
     */
    void restore(const Image &img);

  private:
    void checkRange(DevPtr addr, size_t bytes, bool is_write) const;

    ZeroedBytes storage_;
    size_t size_;
    /** free list: start -> size, coalesced on free() */
    std::map<DevPtr, size_t> free_blocks_;
    /** live allocations: start -> size */
    std::map<DevPtr, size_t> live_blocks_;
    size_t bytes_allocated_ = 0;
    WriteObserver observer_;
    ShadowMemory *shadow_ = nullptr;
};

} // namespace nvbit::mem

#endif // NVBIT_MEM_DEVICE_MEMORY_HPP
