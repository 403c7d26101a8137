#include "mem/device_memory.hpp"

#include <atomic>

#include "common/logging.hpp"
#include "mem/shadow_memory.hpp"

namespace nvbit::mem {

namespace {

constexpr DevPtr kFirstUsable = 4096; // keep page 0 unmapped

DevPtr
alignUp(DevPtr p, size_t align)
{
    return (p + align - 1) & ~static_cast<DevPtr>(align - 1);
}

} // namespace

DeviceMemory::DeviceMemory(size_t size)
    : storage_(allocZeroed(size)), size_(size)
{
    NVBIT_ASSERT(size > kFirstUsable, "device memory too small: %zu", size);
    free_blocks_[kFirstUsable] = size - kFirstUsable;
}

DevPtr
DeviceMemory::tryAlloc(size_t bytes, size_t align)
{
    if (bytes == 0)
        bytes = 1;
    NVBIT_ASSERT(align != 0 && (align & (align - 1)) == 0,
                 "alignment %zu is not a power of two", align);
    for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
        DevPtr start = it->first;
        size_t avail = it->second;
        DevPtr aligned = alignUp(start, align);
        size_t pad = aligned - start;
        if (avail < pad || avail - pad < bytes)
            continue;
        // Carve [aligned, aligned+bytes) out of the free block.
        size_t tail = avail - pad - bytes;
        free_blocks_.erase(it);
        if (pad > 0)
            free_blocks_[start] = pad;
        if (tail > 0)
            free_blocks_[aligned + bytes] = tail;
        live_blocks_[aligned] = bytes;
        bytes_allocated_ += bytes;
        if (shadow_)
            shadow_->onAlloc(aligned, bytes);
        return aligned;
    }
    return 0;
}

DevPtr
DeviceMemory::alloc(size_t bytes, size_t align)
{
    DevPtr p = tryAlloc(bytes, align);
    NVBIT_ASSERT(p != 0, "device memory exhausted allocating %zu bytes "
                 "(%zu already allocated)", bytes, bytes_allocated_);
    return p;
}

void
DeviceMemory::free(DevPtr addr)
{
    auto it = live_blocks_.find(addr);
    NVBIT_ASSERT(it != live_blocks_.end(),
                 "free of unallocated device address 0x%llx",
                 static_cast<unsigned long long>(addr));
    size_t bytes = it->second;
    live_blocks_.erase(it);
    bytes_allocated_ -= bytes;
    if (shadow_)
        shadow_->onFree(addr, bytes);

    // Insert and coalesce with neighbours.
    auto [fit, inserted] = free_blocks_.emplace(addr, bytes);
    NVBIT_ASSERT(inserted, "free list corruption at 0x%llx",
                 static_cast<unsigned long long>(addr));
    // Coalesce with next block.
    auto next = std::next(fit);
    if (next != free_blocks_.end() && fit->first + fit->second == next->first) {
        fit->second += next->second;
        free_blocks_.erase(next);
    }
    // Coalesce with previous block.
    if (fit != free_blocks_.begin()) {
        auto prev = std::prev(fit);
        if (prev->first + prev->second == fit->first) {
            prev->second += fit->second;
            free_blocks_.erase(fit);
        }
    }
}

bool
DeviceMemory::inRange(DevPtr addr, size_t bytes) const
{
    return addr >= kFirstUsable && addr + bytes <= size_ &&
           addr + bytes >= addr;
}

void
DeviceMemory::checkRange(DevPtr addr, size_t bytes, bool is_write) const
{
    if (!inRange(addr, bytes))
        throw MemFault{addr, bytes, is_write};
}

void
DeviceMemory::read(DevPtr addr, void *out, size_t bytes) const
{
    checkRange(addr, bytes, false);
    std::memcpy(out, storage_.get() + addr, bytes);
}

void
DeviceMemory::write(DevPtr addr, const void *in, size_t bytes)
{
    checkRange(addr, bytes, true);
    std::memcpy(storage_.get() + addr, in, bytes);
    if (shadow_)
        shadow_->markInitialized(addr, bytes);
    if (observer_)
        observer_(addr, bytes);
}

namespace {

/** Sized accessors require natural alignment, like GPU ld/st units. */
void
checkAligned(DevPtr addr, size_t bytes, bool is_write)
{
    if ((addr & (bytes - 1)) != 0)
        throw DeviceMemory::MemFault{addr, bytes, is_write, true};
}

/**
 * The naturally aligned word at @p p, accessed as a relaxed atomic.
 * SMs of the parallel engine may load and store one global word at
 * once (a legal CUDA race whose last writer is unspecified); that must
 * not be a host data race.  On x86-64 these are the same plain moves.
 */
template <typename T>
std::atomic_ref<T>
word(uint8_t *p)
{
    return std::atomic_ref<T>(*reinterpret_cast<T *>(p));
}

} // namespace

uint32_t
DeviceMemory::read32(DevPtr addr) const
{
    checkAligned(addr, sizeof(uint32_t), false);
    checkRange(addr, sizeof(uint32_t), false);
    return word<uint32_t>(storage_.get() + addr)
        .load(std::memory_order_relaxed);
}

uint64_t
DeviceMemory::read64(DevPtr addr) const
{
    checkAligned(addr, sizeof(uint64_t), false);
    checkRange(addr, sizeof(uint64_t), false);
    return word<uint64_t>(storage_.get() + addr)
        .load(std::memory_order_relaxed);
}

// write32/write64 back the simulator's STG/STL/ATOM stores.  They skip
// the write observer on purpose: device-side stores do not keep the
// predecode (instruction) cache coherent, matching real-GPU semantics
// and keeping the store hot path free of std::function overhead.
void
DeviceMemory::write32(DevPtr addr, uint32_t v)
{
    checkAligned(addr, sizeof(v), true);
    checkRange(addr, sizeof(v), true);
    word<uint32_t>(storage_.get() + addr)
        .store(v, std::memory_order_relaxed);
    if (shadow_)
        shadow_->markInitialized(addr, sizeof(v));
}

void
DeviceMemory::write64(DevPtr addr, uint64_t v)
{
    checkAligned(addr, sizeof(v), true);
    checkRange(addr, sizeof(v), true);
    word<uint64_t>(storage_.get() + addr)
        .store(v, std::memory_order_relaxed);
    if (shadow_)
        shadow_->markInitialized(addr, sizeof(v));
}

DeviceMemory::Image
DeviceMemory::snapshot() const
{
    Image img;
    img.storage.assign(storage_.get(), storage_.get() + size_);
    img.free_blocks = free_blocks_;
    img.live_blocks = live_blocks_;
    img.bytes_allocated = bytes_allocated_;
    return img;
}

void
DeviceMemory::restore(const Image &img)
{
    NVBIT_ASSERT(img.storage.size() == size_,
                 "restoring a %zu-byte image onto a %zu-byte device",
                 img.storage.size(), size_);
    std::memcpy(storage_.get(), img.storage.data(), size_);
    free_blocks_ = img.free_blocks;
    live_blocks_ = img.live_blocks;
    bytes_allocated_ = img.bytes_allocated;
    if (shadow_)
        shadow_->rebuildFromLive(live_blocks_);
}

std::span<const uint8_t>
DeviceMemory::view(DevPtr addr, size_t bytes) const
{
    checkRange(addr, bytes, false);
    return {storage_.get() + addr, bytes};
}

std::span<uint8_t>
DeviceMemory::mutableView(DevPtr addr, size_t bytes)
{
    checkRange(addr, bytes, true);
    if (shadow_)
        shadow_->markInitialized(addr, bytes);
    if (observer_)
        observer_(addr, bytes);
    return {storage_.get() + addr, bytes};
}

} // namespace nvbit::mem
