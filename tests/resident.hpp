/**
 * @file
 * Host resident-memory probe for tests that bound what an allocation
 * costs before it is touched.
 */
#ifndef NVBIT_TESTS_RESIDENT_HPP
#define NVBIT_TESTS_RESIDENT_HPP

#include <cstdint>
#include <fstream>
#include <unistd.h>

namespace nvbit::test {

/** This process's resident set size in KiB (/proc/self/statm). */
inline int64_t
residentKiB()
{
    std::ifstream in("/proc/self/statm");
    int64_t total_pages = 0, resident_pages = 0;
    in >> total_pages >> resident_pages;
    return resident_pages * (::sysconf(_SC_PAGESIZE) / 1024);
}

/**
 * Bound on the resident growth of constructing a default-size (96 MiB)
 * device memory or shadow: allocator bookkeeping only, no zero-fill.
 * ThreadSanitizer's calloc clears every block eagerly, so the bound
 * holds in native and ASan builds only.
 */
constexpr int64_t kUntouchedBoundKiB = 8 << 10;

#if defined(__SANITIZE_THREAD__)
constexpr bool kCallocIsLazy = false;
#else
constexpr bool kCallocIsLazy = true;
#endif

} // namespace nvbit::test

#endif // NVBIT_TESTS_RESIDENT_HPP
