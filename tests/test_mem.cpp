/**
 * @file
 * Unit tests for simulated device memory and its allocator.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "mem/device_memory.hpp"
#include "resident.hpp"

namespace nvbit::mem {
namespace {

TEST(DeviceMemory, NeverHandsOutNull)
{
    DeviceMemory m(1 << 20);
    DevPtr p = m.alloc(64);
    EXPECT_NE(p, 0u);
    EXPECT_GE(p, 4096u);
}

TEST(DeviceMemory, ReadWriteRoundTrip)
{
    DeviceMemory m(1 << 20);
    DevPtr p = m.alloc(256);
    m.write32(p, 0xDEADBEEF);
    m.write64(p + 8, 0x0123456789ABCDEFull);
    EXPECT_EQ(m.read32(p), 0xDEADBEEFu);
    EXPECT_EQ(m.read64(p + 8), 0x0123456789ABCDEFull);
}

TEST(DeviceMemory, AlignmentHonoured)
{
    DeviceMemory m(1 << 20);
    EXPECT_EQ(m.alloc(10, 256) % 256, 0u);
    EXPECT_EQ(m.alloc(10, 16) % 16, 0u);
    EXPECT_EQ(m.alloc(1, 4096) % 4096, 0u);
}

TEST(DeviceMemory, OutOfBoundsThrows)
{
    DeviceMemory m(1 << 20);
    EXPECT_THROW(m.read32(0), DeviceMemory::MemFault);          // null page
    EXPECT_THROW(m.read32((1 << 20) - 2), DeviceMemory::MemFault);
    EXPECT_THROW(m.write32(1ull << 40, 1), DeviceMemory::MemFault);
    uint32_t v;
    EXPECT_THROW(m.read(~0ull - 1, &v, 4), DeviceMemory::MemFault);
}

TEST(DeviceMemory, FreeCoalescesAndReuses)
{
    DeviceMemory m(1 << 20);
    DevPtr a = m.alloc(1024, 16);
    DevPtr b = m.alloc(1024, 16);
    DevPtr c = m.alloc(1024, 16);
    size_t used = m.bytesAllocated();
    EXPECT_EQ(used, 3 * 1024u);
    m.free(b);
    m.free(a);
    m.free(c);
    EXPECT_EQ(m.bytesAllocated(), 0u);
    // After full coalescing, a huge allocation must succeed again.
    DevPtr big = m.tryAlloc((1 << 20) - 8192, 16);
    EXPECT_NE(big, 0u);
}

TEST(DeviceMemory, ExhaustionReturnsZeroFromTryAlloc)
{
    DeviceMemory m(1 << 20);
    EXPECT_EQ(m.tryAlloc(2 << 20), 0u);
    // ...but smaller allocations still succeed afterwards.
    EXPECT_NE(m.tryAlloc(1024), 0u);
}

TEST(DeviceMemory, DoubleFreePanics)
{
    DeviceMemory m(1 << 20);
    DevPtr p = m.alloc(64);
    m.free(p);
    EXPECT_DEATH(m.free(p), "free of unallocated");
}

TEST(DeviceMemory, ManySmallAllocationsAreDistinct)
{
    DeviceMemory m(1 << 20);
    std::vector<DevPtr> ptrs;
    for (int i = 0; i < 100; ++i)
        ptrs.push_back(m.alloc(40, 8));
    std::sort(ptrs.begin(), ptrs.end());
    for (size_t i = 1; i < ptrs.size(); ++i)
        EXPECT_GE(ptrs[i], ptrs[i - 1] + 40);
}

// Constructing a device writes nothing: its pages are zero-filled on
// first touch, so resident memory grows by bookkeeping only.
TEST(DeviceMemory, DefaultSizeCostsNoResidentMemoryUntilTouched)
{
    int64_t before = test::residentKiB();
    DeviceMemory m;
    int64_t grown = test::residentKiB() - before;
    if (test::kCallocIsLazy) {
        EXPECT_LT(grown, test::kUntouchedBoundKiB) << grown << " KiB";
    }
    EXPECT_EQ(m.read64(4096), 0u);
    EXPECT_EQ(m.read64(m.size() / 2), 0u);
    EXPECT_EQ(m.read64(m.size() - 8), 0u);
}

// The zeros must come from the allocator, not from luck: a block that
// recycles dirty heap memory still reads zero everywhere.
TEST(DeviceMemory, RecycledHeapBlockReadsZero)
{
    constexpr size_t kBytes = 64 << 10;
    const std::vector<uint8_t> ones(kBytes - 4096, 0xFF);
    {
        DeviceMemory dirty(kBytes);
        dirty.write(4096, ones.data(), ones.size());
    }
    DeviceMemory m(kBytes);
    std::vector<uint8_t> got(ones.size(), 0xAA);
    m.read(4096, got.data(), got.size());
    EXPECT_EQ(std::count(got.begin(), got.end(), 0),
              static_cast<std::ptrdiff_t>(got.size()));
}

} // namespace
} // namespace nvbit::mem
