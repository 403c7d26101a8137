/**
 * @file
 * Hardware performance events (CUPTI-style).
 *
 * The simulator's SM layer charges every event through a single
 * `EventSet` embedded in its per-SM stats shard, so event values obey
 * the same determinism contract as the rest of the launch statistics:
 * bit-identical across {serial,parallel} x {traces off,on}
 * (see docs/execution_pipeline.md).  Counting is *free-running and
 * strictly passive* — events never charge simulated cycles, so
 * enabling any number of event groups changes the cycle count by
 * exactly zero.  Event groups (driver/event_groups.hpp) select which
 * of the free-running counters a client accumulates and reads,
 * mirroring how CUPTI exposes the hardware's always-counting PM units.
 *
 * Sector granularity: global-memory traffic is accounted in 32-byte
 * sectors (`kSectorBytes`), four per 128-byte cache line — the
 * granularity real NVIDIA L1/L2 units count in, and the granularity
 * `tools/mem_divergence` measures through instrumentation, which is
 * what makes exact counter-vs-instrumentation cross-validation
 * possible (see tools/kernel_profiler).
 */
#ifndef NVBIT_OBS_EVENTS_HPP
#define NVBIT_OBS_EVENTS_HPP

#include <array>
#include <cstddef>
#include <cstdint>

namespace nvbit::obs {

/** Global-memory sector size in bytes (4 sectors per 128-byte line). */
constexpr unsigned kSectorBytes = 32;

/** Shared-memory bank count (4-byte word interleaving). */
constexpr unsigned kSharedBanks = 32;

/**
 * The hardware events the simulated device exposes.  Names mirror
 * CUPTI's event taxonomy where one exists (see eventName()).
 */
enum class HwEvent : uint8_t {
    /** Warp-level instructions issued. */
    InstExecuted = 0,
    /** Thread-level instructions: popcount of the active (converged)
     *  mask per issued instruction, before guard predication. */
    ThreadInstExecuted,
    /** Thread-level instructions whose guard predicate passed. */
    ThreadInstNotPredicatedOff,
    /** Warps resident at CTA start, summed over CTAs. */
    WarpsLaunched,
    /** Occupancy accumulator: resident warps x CTA duration cycles,
     *  summed over committed CTAs. */
    WarpCyclesActive,
    /** Per-SM cycle totals (issue + stall + L2 replay), summed over
     *  active SMs. */
    SmActiveCycles,
    /** Scheduler accumulator: at every issue slot, the number of warps
     *  the scheduler last observed as issuable (including the issuing
     *  warp), summed over issued instructions. */
    EligibleWarpsSum,

    /** Warp-level global load instructions (LDG with >= 1 lane). */
    GlobalLoadRequests,
    /** Unique 32-byte sectors requested by global loads. */
    GlobalLoadSectors,
    /** Bytes requested by global-load lanes (lanes x access width). */
    GlobalLoadBytes,
    GlobalStoreRequests,
    GlobalStoreSectors,
    GlobalStoreBytes,
    /** Warp-level global atomic instructions (ATOM). */
    GlobalAtomRequests,
    GlobalAtomSectors,

    /** Warp-level shared-memory load instructions (LDS). */
    SharedLoadRequests,
    /** Bank-serialised transactions for shared loads (>= requests). */
    SharedLoadTransactions,
    SharedStoreRequests,
    SharedStoreTransactions,
    /** Extra transactions caused by bank conflicts:
     *  transactions - requests, summed over LDS/STS. */
    SharedBankConflicts,

    /** L1 sector traffic, split by hit/miss and read/write (stores and
     *  atomics count as writes). */
    L1SectorReadHits,
    L1SectorReadMisses,
    L1SectorWriteHits,
    L1SectorWriteMisses,
    /** L2 sector traffic (the L1-miss stream, replayed in grid order). */
    L2SectorReadHits,
    L2SectorReadMisses,
    L2SectorWriteHits,
    L2SectorWriteMisses,

    NumEvents
};

constexpr size_t kNumHwEvents = static_cast<size_t>(HwEvent::NumEvents);

/** CUPTI-style snake_case event name. */
constexpr const char *
eventName(HwEvent e)
{
    switch (e) {
      case HwEvent::InstExecuted: return "inst_executed";
      case HwEvent::ThreadInstExecuted: return "thread_inst_executed";
      case HwEvent::ThreadInstNotPredicatedOff:
        return "not_predicated_off_thread_inst_executed";
      case HwEvent::WarpsLaunched: return "warps_launched";
      case HwEvent::WarpCyclesActive: return "warp_cycles_active";
      case HwEvent::SmActiveCycles: return "sm_active_cycles";
      case HwEvent::EligibleWarpsSum: return "eligible_warps_sum";
      case HwEvent::GlobalLoadRequests: return "global_load_requests";
      case HwEvent::GlobalLoadSectors: return "global_load_sectors";
      case HwEvent::GlobalLoadBytes: return "global_load_bytes";
      case HwEvent::GlobalStoreRequests: return "global_store_requests";
      case HwEvent::GlobalStoreSectors: return "global_store_sectors";
      case HwEvent::GlobalStoreBytes: return "global_store_bytes";
      case HwEvent::GlobalAtomRequests: return "global_atom_requests";
      case HwEvent::GlobalAtomSectors: return "global_atom_sectors";
      case HwEvent::SharedLoadRequests: return "shared_load_requests";
      case HwEvent::SharedLoadTransactions:
        return "shared_load_transactions";
      case HwEvent::SharedStoreRequests: return "shared_store_requests";
      case HwEvent::SharedStoreTransactions:
        return "shared_store_transactions";
      case HwEvent::SharedBankConflicts: return "shared_bank_conflicts";
      case HwEvent::L1SectorReadHits: return "l1_sector_read_hits";
      case HwEvent::L1SectorReadMisses: return "l1_sector_read_misses";
      case HwEvent::L1SectorWriteHits: return "l1_sector_write_hits";
      case HwEvent::L1SectorWriteMisses: return "l1_sector_write_misses";
      case HwEvent::L2SectorReadHits: return "l2_sector_read_hits";
      case HwEvent::L2SectorReadMisses: return "l2_sector_read_misses";
      case HwEvent::L2SectorWriteHits: return "l2_sector_write_hits";
      case HwEvent::L2SectorWriteMisses: return "l2_sector_write_misses";
      case HwEvent::NumEvents: break;
    }
    return "unknown";
}

/**
 * A full vector of event counters.  This is the unit everything
 * traffics in: each SM shard charges into one, `LaunchStats` merges
 * the shards, event groups accumulate launch sets, and the metric
 * evaluator reads one.
 */
struct EventSet {
    std::array<uint64_t, kNumHwEvents> counts{};

    void
    add(HwEvent e, uint64_t n)
    {
        counts[static_cast<size_t>(e)] += n;
    }

    uint64_t
    get(HwEvent e) const
    {
        return counts[static_cast<size_t>(e)];
    }

    void
    merge(const EventSet &o)
    {
        for (size_t i = 0; i < kNumHwEvents; ++i)
            counts[i] += o.counts[i];
    }

    /** True when every counter is zero (nothing was charged). */
    bool
    empty() const
    {
        for (uint64_t c : counts)
            if (c != 0)
                return false;
        return true;
    }

    bool operator==(const EventSet &) const = default;
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_EVENTS_HPP
