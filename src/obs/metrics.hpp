/**
 * @file
 * Process-wide metrics registry: the single place every layer of the
 * stack publishes what it measured.
 *
 * The simulator publishes a `LaunchRecord` (with per-SM shards) per
 * kernel launch, the driver publishes API traffic counters (launches,
 * memcpy bytes, module loads, faults), and the NVBit core publishes
 * JIT counters (trampolines generated, save/restore sites, code-swap
 * bytes) and tool-callback timings.  Tools and tests read the merged
 * view back as JSON (`toJson`); the observability session
 * (obs/session.hpp) writes it to `NVBIT_SIM_METRICS=<path>` at process
 * exit and on the driver fault path.
 *
 * Counters carry a `Stability` tag: `Exact` values are bit-identical
 * across the four engine configurations ({serial, parallel} x
 * {traces off, on}; see docs/execution_pipeline.md), while
 * `Volatile` values (wall-clock timings, decode-cache hit rates) are
 * host-dependent or describe the simulator rather than the GPU.  `toJson(true)` omits the volatile ones,
 * which is what lets tests assert that two engine configurations
 * produced byte-identical metrics snapshots.
 */
#ifndef NVBIT_OBS_METRICS_HPP
#define NVBIT_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/events.hpp"  // HwEvent / EventSet
#include "obs/profile.hpp" // StallReason / kNumStallReasons

namespace nvbit::obs {

/** How reproducible a counter's value is across engine configs. */
enum class Stability {
    /** Bit-identical across {serial,parallel} x {traces off,on}. */
    Exact,
    /** Host-dependent (wall-clock) or engine-dependent (cache luck). */
    Volatile,
};

/** One SM's private slice of a launch (see sim::SmExecutor). */
struct SmShard {
    /** SM index the shard belongs to. */
    uint32_t sm = 0;
    /** Thread-level instructions executed on this SM. */
    uint64_t thread_instrs = 0;
    /** Warp-level instructions issued on this SM. */
    uint64_t warp_instrs = 0;
    /** Thread blocks this SM ran. */
    uint64_t ctas = 0;
    /** This SM's cycle total (issue + stall + replayed L2 penalty). */
    uint64_t cycles = 0;
    /** Fetches served from the SM's remembered page (Volatile). */
    uint64_t decode_cache_hits = 0;
    /** Fetches that consulted the shared code cache (Volatile). */
    uint64_t decode_cache_misses = 0;
    /** This SM's private L1 outcomes (Exact: the per-SM L1 stream is
     *  engine-invariant). */
    uint64_t l1_hits = 0, l1_misses = 0;
    /** Shared-L2 outcomes attributed to this SM by the grid-order
     *  replay (Exact for the same reason). */
    uint64_t l2_hits = 0, l2_misses = 0;
    /** This SM's hardware-event shard (Exact). */
    EventSet events;
    /**
     * Per-StallReason cycle breakdown, indexed by `StallReason`.  The
     * Idle bucket pads the shard up to the launch's `cycles` scalar,
     * so every shard's breakdown sums to the launch cycles exactly.
     */
    std::array<uint64_t, kNumStallReasons> cycles_by_reason{};
};

/** Everything the simulator knows about one kernel launch. */
struct LaunchRecord {
    /** Global launch ordinal (0-based, across all contexts). */
    uint64_t index = 0;
    /** Kernel name; published atomically with the record from the
     *  launch's own label (LaunchParams::label). */
    std::string kernel;
    /** Thread-level instructions (guard predicate passed). */
    uint64_t thread_instrs = 0;
    /** Warp-level instructions (at least one active thread). */
    uint64_t warp_instrs = 0;
    /** Thread blocks in the grid. */
    uint64_t ctas = 0;
    /** Launch cycles: max over SMs of the per-SM cycle total. */
    uint64_t cycles = 0;
    /** Warp-level global-memory instructions (LDG/STG/ATOM). */
    uint64_t global_mem_warp_instrs = 0;
    /** Sum of unique cache lines per global-memory warp instruction. */
    uint64_t unique_lines_sum = 0;
    /** Sum of unique 32-byte sectors per global-memory warp instr. */
    uint64_t unique_sectors_sum = 0;
    uint64_t l1_hits = 0, l1_misses = 0;
    uint64_t l2_hits = 0, l2_misses = 0;
    /** Aggregated hardware events for the launch (Exact). */
    EventSet events;
    /** Device constant at launch time: max resident warps per SM
     *  (denominator input for occupancy metrics). */
    uint64_t max_warps_per_sm = 0;
    /**
     * Per-StallReason cycle breakdown of the critical (slowest) SM;
     * sums exactly to `cycles`.  Indexed by `StallReason`.
     */
    std::array<uint64_t, kNumStallReasons> cycles_by_reason{};
    /** Per-SM shards, ascending by SM id; idle SMs are omitted. */
    std::vector<SmShard> sms;
};

/** Read-only copy of a histogram's state (see defineHistogram). */
struct HistogramSnapshot {
    /** Upper bucket bounds (value <= bounds[i] lands in bucket i). */
    std::vector<uint64_t> bounds;
    /** bounds.size() + 1 counts; the last is the overflow bucket. */
    std::vector<uint64_t> counts;
    uint64_t total = 0; ///< number of observations
    uint64_t sum = 0;   ///< sum of observed values
    Stability stability = Stability::Exact;
};

/**
 * Singleton registry of named counters plus a bounded history of
 * per-launch records.  All methods are thread-safe; publishing is a
 * couple of map operations under a mutex, cheap enough for per-launch
 * and per-API-call call sites (never per-instruction).
 *
 * Snapshot consistency (the live-telemetry contract): a *logical*
 * update often spans several counters — a completed launch bumps the
 * device launch count, the tenant launch count and the tenant cycle
 * total together.  Individually-locked add() calls leave a window in
 * which an exporter sees the first bump without the second, which is
 * invisible at exit time but tears every mid-run scrape.  Writers
 * therefore group related mutations in a `Txn` (one lock hold), and
 * the registry keeps a seqlock-style *epoch* word: odd while any
 * mutation is in flight, even when quiescent, advanced twice per
 * batch.  The bracket opens lazily, on the first mutation in a batch
 * that actually changes registry content — a `setGauge` rewriting the
 * value already stored (the telemetry collector republishing unchanged
 * queue depths) leaves the epoch alone, so "epoch moved" means
 * "content changed", never "someone wrote".  Snapshots (`toJson`,
 * `toPrometheus`) serialise under the same mutex, so the epoch they
 * observe is always even — tests and the telemetry publisher assert
 * exactly that, and the publisher also uses the epoch to skip
 * rewriting an unchanged exposition file.
 */
class MetricsRegistry
{
  public:
    /**
     * Default cap on retained launch records.  Each record carries up
     * to one SmShard per SM (~6 KB at 16 SMs), so the history is
     * bounded at ~1.6 MB and peak memory stops growing with run length.
     */
    static constexpr size_t kDefaultLaunchRecordCap = 256;

    /** The process-wide registry (first use starts the observability
     *  session, obs/session.hpp). */
    static MetricsRegistry &instance();

    /**
     * RAII mutation batch: holds the registry lock (and the odd
     * epoch) from construction to destruction, so every mutation made
     * through it lands in the same snapshot.  Keep batches small —
     * a handful of map operations, never I/O.
     */
    class Txn
    {
      public:
        explicit Txn(MetricsRegistry &reg);
        ~Txn();
        Txn(const Txn &) = delete;
        Txn &operator=(const Txn &) = delete;

        void add(std::string_view name, uint64_t delta,
                 Stability st = Stability::Exact);
        void noteMax(std::string_view name, uint64_t value,
                     Stability st = Stability::Exact);
        void setGauge(std::string_view name, uint64_t value,
                      Stability st = Stability::Volatile);
        void observe(std::string_view name, uint64_t value);
        void defineHistogram(std::string_view name,
                             std::vector<uint64_t> bounds,
                             Stability st = Stability::Exact);
        uint64_t recordLaunch(LaunchRecord rec);

      private:
        MetricsRegistry &reg_;
        std::unique_lock<std::mutex> lk_;
    };

    /** Add @p delta to counter @p name, creating it at 0 on first use. */
    void add(std::string_view name, uint64_t delta,
             Stability st = Stability::Exact);

    /** Raise counter @p name to @p value if it is below it (peak /
     *  high-watermark semantics, e.g. queue depths). */
    void noteMax(std::string_view name, uint64_t value,
                 Stability st = Stability::Exact);

    /** Overwrite @p name with @p value (gauge semantics: last write
     *  wins; rendered as a Prometheus gauge).  Volatile by default —
     *  instantaneous readings are never engine-invariant. */
    void setGauge(std::string_view name, uint64_t value,
                  Stability st = Stability::Volatile);

    /**
     * Mutation epoch (seqlock word): even when no mutation batch is in
     * flight, odd while one is.  Monotonic; any change between two
     * reads means the registry content changed in between.
     */
    uint64_t epoch() const
    {
        return epoch_.load(std::memory_order_acquire);
    }

    /** Current value of @p name (0 if it was never touched). */
    uint64_t value(std::string_view name) const;

    /**
     * Define a histogram with *fixed* upper bucket bounds (ascending).
     * Fixed bounds keep snapshots deterministic: the bucket layout is
     * part of the metric's identity, never derived from observed data.
     * Idempotent — redefinition with any bounds leaves the original.
     */
    void defineHistogram(std::string_view name,
                         std::vector<uint64_t> bounds,
                         Stability st = Stability::Exact);

    /** Record @p value into histogram @p name (no-op if undefined). */
    void observe(std::string_view name, uint64_t value);

    /** Copy out a histogram's state; false if it was never defined. */
    bool histogram(std::string_view name, HistogramSnapshot &out) const;

    /**
     * Append a launch record (the simulator calls this once per
     * launch).  Returns the global launch ordinal assigned to it.
     * Only the newest launchRecordCap() records are kept; the
     * `dropped_launch_records` JSON field counts evictions.
     */
    uint64_t recordLaunch(LaunchRecord rec);

    /** Attach the kernel name to the most recent launch record. */
    void labelLastLaunch(std::string_view kernel);

    /** Launch records currently retained (newest-first eviction). */
    std::vector<LaunchRecord> launches() const;

    /** Number of launches ever recorded (not just retained). */
    uint64_t launchCount() const;

    /**
     * Change the retained-history cap (default kDefaultLaunchRecordCap;
     * the session applies NVBIT_SIM_METRICS_HISTORY at start and at
     * every cuInit).  Shrinking evicts oldest-first immediately and
     * counts the drops.
     */
    void setLaunchRecordCap(size_t cap);

    /** Current retained-history cap. */
    size_t launchRecordCap() const;

    /**
     * Serialise the registry as a deterministic JSON object
     * (counters sorted by name, launches in launch order).  With
     * @p exact_only, Volatile counters and the per-shard decode-cache
     * fields are omitted so the result is bit-identical across engine
     * configurations.
     */
    std::string toJson(bool exact_only = false) const;

    /**
     * Serialise counters, gauges and histograms in Prometheus
     * text-exposition format (the live-telemetry scrape payload — see
     * docs/observability.md "Live telemetry").  Names are prefixed
     * `nvbit_` and sanitised to [a-zA-Z0-9_:]; per-tenant series
     * (`driver.tenant<N>.x`, `slo.tenant<N>.x`) become labelled
     * families (`nvbit_driver_x{tenant="N"}`).  Histograms render as
     * cumulative `_bucket{le=...}` series plus `_sum`/`_count`.  The
     * registry's own epoch and launch count are included as
     * `nvbit_metrics_epoch` / `nvbit_launches_total`.  Taken under the
     * registry lock, so the snapshot is internally consistent.  When
     * @p epoch_out is non-null it receives the epoch the snapshot
     * observed under that lock (always even) — the value the publisher
     * compares against on the next tick to decide whether the payload
     * is stale.
     */
    std::string toPrometheus(uint64_t *epoch_out = nullptr) const;

    /** Drop all counters, histograms and launch records; the history
     *  cap returns to kDefaultLaunchRecordCap. */
    void reset();

  private:
    friend struct SessionSinks;
    MetricsRegistry() = default;

    struct Counter {
        uint64_t value = 0;
        Stability stability = Stability::Exact;
        /** Gauge (setGauge last-write-wins) vs monotonic counter —
         *  only the Prometheus TYPE line differs. */
        bool is_gauge = false;
    };

    struct Histogram {
        std::vector<uint64_t> bounds;
        std::vector<uint64_t> counts; // bounds.size() + 1
        uint64_t total = 0;
        uint64_t sum = 0;
        Stability stability = Stability::Exact;
    };

    /** Evict past the cap, oldest-first (mu_ held). */
    void evictLocked();

    // Unlocked bodies shared by the plain mutators and Txn.  Each body
    // calls touchLocked() before its first actual change and returns
    // without touching the epoch when the call is a no-op (same gauge
    // value, noteMax below the current max, delta 0, observe on an
    // undefined histogram); the batch is closed by epochCloseLocked().
    void addLocked(std::string_view name, uint64_t delta, Stability st);
    void noteMaxLocked(std::string_view name, uint64_t value,
                       Stability st);
    void setGaugeLocked(std::string_view name, uint64_t value,
                        Stability st);
    void observeLocked(std::string_view name, uint64_t value);
    void defineHistogramLocked(std::string_view name,
                               std::vector<uint64_t> bounds,
                               Stability st);
    uint64_t recordLaunchLocked(LaunchRecord rec);

    /** Seqlock bracket: +1 (odd) with mu_ held before mutating, +1
     *  (even) after.  Release order pairs with epoch()'s acquire.
     *  Opened lazily by touchLocked() so no-op batches leave the epoch
     *  untouched; every mutator path must end in epochCloseLocked(). */
    void touchLocked()
    {
        if (!epoch_open_) {
            epoch_open_ = true;
            epoch_.fetch_add(1, std::memory_order_release);
        }
    }
    void epochCloseLocked()
    {
        if (epoch_open_) {
            epoch_open_ = false;
            epoch_.fetch_add(1, std::memory_order_release);
        }
    }

    mutable std::mutex mu_;
    std::atomic<uint64_t> epoch_{0};
    /** True between a batch's first real change and its close (mu_
     *  held throughout, so readers never observe it set). */
    bool epoch_open_ = false;
    std::map<std::string, Counter, std::less<>> counters_;
    std::map<std::string, Histogram, std::less<>> histograms_;
    std::deque<LaunchRecord> launches_;
    size_t launch_record_cap_ = kDefaultLaunchRecordCap;
    uint64_t next_index_ = 0;
    uint64_t dropped_records_ = 0;
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_METRICS_HPP
