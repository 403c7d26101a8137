#include "mem/shadow_memory.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nvbit::mem {

ShadowMemory::ShadowMemory(size_t bytes)
    : flags_(allocZeroed(bytes)), size_(bytes)
{
}

void
ShadowMemory::setFlags(DevPtr addr, size_t bytes, uint8_t set,
                       uint8_t clear)
{
    if (addr >= size_)
        return;
    size_t end = std::min(static_cast<size_t>(addr) + bytes, size_);
    for (size_t i = addr; i < end; ++i) {
        if (clear != 0) {
            uint8_t v = flag(i).load(std::memory_order_relaxed);
            flag(i).store(static_cast<uint8_t>((v & ~clear) | set),
                          std::memory_order_relaxed);
        } else {
            flag(i).fetch_or(set, std::memory_order_relaxed);
        }
    }
}

void
ShadowMemory::onAlloc(DevPtr base, size_t bytes)
{
    setFlags(base, bytes, kAddressable, kInitialized);
    std::lock_guard<std::mutex> lock(mu_);
    // Drop stale (freed) records the new block overlaps, so provenance
    // lookups never resolve into a recycled address range.
    auto it = allocs_.lower_bound(base);
    if (it != allocs_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.base + prev->second.bytes > base)
            it = prev;
    }
    while (it != allocs_.end() && it->second.base < base + bytes)
        it = allocs_.erase(it);
    AllocInfo info;
    info.base = base;
    info.bytes = bytes;
    info.seq = next_seq_++;
    info.live = true;
    allocs_[base] = info;
}

void
ShadowMemory::onFree(DevPtr base, size_t bytes)
{
    setFlags(base, bytes, 0, kAddressable | kInitialized);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = allocs_.find(base);
    if (it != allocs_.end())
        it->second.live = false;
}

void
ShadowMemory::markInitialized(DevPtr addr, size_t bytes)
{
    setFlags(addr, bytes, kInitialized, 0);
}

bool
ShadowMemory::rangeAddressable(DevPtr addr, size_t bytes,
                               DevPtr *first_bad) const
{
    for (size_t i = 0; i < bytes; ++i) {
        DevPtr p = addr + i;
        if (p >= size_ ||
            (flag(p).load(std::memory_order_relaxed) & kAddressable) == 0) {
            if (first_bad != nullptr)
                *first_bad = p;
            return false;
        }
    }
    return true;
}

bool
ShadowMemory::rangeInitialized(DevPtr addr, size_t bytes,
                               DevPtr *first_bad) const
{
    for (size_t i = 0; i < bytes; ++i) {
        DevPtr p = addr + i;
        if (p >= size_ ||
            (flag(p).load(std::memory_order_relaxed) & kInitialized) == 0) {
            if (first_bad != nullptr)
                *first_bad = p;
            return false;
        }
    }
    return true;
}

bool
ShadowMemory::nearestAlloc(DevPtr addr, AllocInfo &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (allocs_.empty())
        return false;
    // Candidates: the record at or below addr, and the one above it.
    auto above = allocs_.upper_bound(addr);
    const AllocInfo *best = nullptr;
    uint64_t best_dist = UINT64_MAX;
    if (above != allocs_.begin()) {
        const AllocInfo &a = std::prev(above)->second;
        uint64_t dist = addr < a.base + a.bytes ? 0
                                                : addr - (a.base + a.bytes);
        if (dist < best_dist) {
            best = &a;
            best_dist = dist;
        }
    }
    if (above != allocs_.end()) {
        const AllocInfo &a = above->second;
        uint64_t dist = a.base > addr ? a.base - addr : 0;
        if (dist < best_dist)
            best = &a;
    }
    if (best == nullptr)
        return false;
    out = *best;
    return true;
}

void
ShadowMemory::rebuildFromLive(const std::map<DevPtr, size_t> &live_blocks)
{
    for (size_t i = 0; i < size_; ++i)
        flag(i).store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    allocs_.clear();
    for (const auto &[base, bytes] : live_blocks) {
        size_t end = std::min(static_cast<size_t>(base) + bytes, size_);
        for (size_t i = base; i < end; ++i)
            flag(i).store(kAddressable | kInitialized,
                          std::memory_order_relaxed);
        AllocInfo info;
        info.base = base;
        info.bytes = bytes;
        info.seq = next_seq_++;
        info.live = true;
        allocs_[base] = info;
    }
}

} // namespace nvbit::mem
