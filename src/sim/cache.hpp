/**
 * @file
 * Set-associative cache model (LRU) used for the per-SM L1s and the
 * shared L2 of the simulated device.
 */
#ifndef NVBIT_SIM_CACHE_HPP
#define NVBIT_SIM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/config.hpp"

namespace nvbit::sim {

/** One set-associative LRU cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /** Look up @p line_addr (already line-aligned); fills on miss. */
    bool access(uint64_t line_addr);

    /** Drop all contents (e.g. between benchmark repetitions). */
    void invalidateAll();

    unsigned lineBytes() const { return line_bytes_; }

    struct Way {
        uint64_t tag = ~0ull;
        uint64_t lru = 0;
        bool valid = false;
    };

    /** Value snapshot of the tag/LRU state (checkpoint/restore). */
    struct Image {
        uint64_t tick = 0;
        std::vector<Way> ways;
    };

    Image snapshot() const { return {tick_, ways_}; }
    void restore(const Image &img);

  private:

    unsigned line_bytes_;
    unsigned assoc_;
    size_t num_sets_;
    uint64_t tick_ = 0;
    std::vector<Way> ways_; // num_sets_ * assoc_
};

/**
 * The device cache hierarchy: one L1 per SM in front of a shared L2.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const GpuConfig &cfg);

    /**
     * Access only SM @p sm's private L1 (returns hit?).  The SMs call
     * this as they run; the shared-L2 stream is replayed after they
     * join, to keep results deterministic.
     */
    bool accessL1(unsigned sm, uint64_t line_addr);

    /** Access only the shared L2 (returns hit?). */
    bool accessL2(uint64_t line_addr);

    void invalidateAll();

    unsigned lineBytes() const { return line_bytes_; }

    /** Value snapshot of every level's tag state. */
    struct Image {
        std::vector<Cache::Image> l1s;
        Cache::Image l2;
    };

    Image snapshot() const;
    void restore(const Image &img);

  private:
    unsigned line_bytes_;
    std::vector<Cache> l1s_;
    Cache l2_;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_CACHE_HPP
