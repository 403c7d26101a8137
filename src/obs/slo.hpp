/**
 * @file
 * Rolling-window SLO monitor for the multi-tenant driver service.
 *
 * Each tenant gets a ring of fixed-duration epoch buckets; every
 * completed stream op lands its client-observed latency (and error
 * flag) in the bucket covering its completion time.  The *window* —
 * the union of all live buckets — feeds windowed p50/p99 latency,
 * error rate and op-rate gauges, published into the MetricsRegistry
 * as Volatile `slo.tenant<N>.*` series so the telemetry publisher
 * exports them alongside everything else.
 *
 * Quantiles are estimated from a fixed geometric bucket ladder (the
 * estimate is the upper bound of the bucket where the cumulative
 * count crosses the rank), so the layout is deterministic even though
 * the values are wall-clock and therefore Volatile.  The end-of-run
 * summary separates *exact* fields (op and error counts, which are
 * engine-invariant) from the volatile latency fields; determinism
 * tests assert only the exact part.
 *
 * Breach detection: when a windowed p99 exceeds the configured
 * threshold (`NVBIT_SIM_SLO_P99_US`, applied by the observability
 * session at start and at every cuInit; 0 = disabled) the monitor bumps
 * `slo.tenant<N>.breaches` and emits a structured-log warning — the
 * burn-rate signal a paging pipeline would consume.
 */
#ifndef NVBIT_OBS_SLO_HPP
#define NVBIT_OBS_SLO_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace nvbit::obs {

/** Windowed view of one tenant (see SloMonitor::window). */
struct SloWindow {
    uint64_t ops = 0;      ///< ops completed inside the window
    uint64_t errors = 0;   ///< of which failed
    uint64_t p50_us = 0;   ///< windowed median latency estimate
    uint64_t p99_us = 0;   ///< windowed tail latency estimate
    uint64_t error_ppm = 0; ///< windowed error rate, parts-per-million
};

/** Lifetime (non-windowed) totals for one tenant.  `ops`/`errors` are
 *  Exact — they count retired operations, not wall-clock — which is
 *  what the cross-engine determinism tests assert on. */
struct SloSummary {
    uint64_t ops = 0;
    uint64_t errors = 0;
    uint64_t breaches = 0; ///< Volatile: depends on wall-clock latency
};

/**
 * Singleton rolling-window monitor.  All methods are thread-safe; the
 * mutex is a leaf (never held while calling into MetricsRegistry or
 * the logger — gauges are computed under the lock, published after).
 */
class SloMonitor
{
  public:
    static SloMonitor &instance();

    struct Config {
        uint64_t bucket_ms = 250; ///< epoch bucket duration
        size_t buckets = 8;       ///< ring size (window = bucket*N)
        uint64_t p99_threshold_us = 0; ///< 0 disables breach events
    };

    /** Replace the configuration (drops all windowed state). */
    void configure(const Config &cfg);

    /** Set the breach threshold (0 disables; keeps buckets). */
    void setP99Threshold(uint64_t us);

    /** Record one completed op for @p tenant at monotonic @p now_ns
     *  with client-observed latency @p latency_us. */
    void recordOp(uint32_t tenant, uint64_t latency_us, bool error,
                  uint64_t now_ns);

    /** Windowed view of @p tenant as of @p now_ns (false if the tenant
     *  never recorded an op). */
    bool window(uint32_t tenant, uint64_t now_ns, SloWindow &out) const;

    /** Lifetime summary of @p tenant (false if unknown). */
    bool summary(uint32_t tenant, SloSummary &out) const;

    /** Tenants that have recorded at least one op, ascending. */
    std::vector<uint32_t> tenants() const;

    /**
     * Publish windowed gauges for every tenant into the
     * MetricsRegistry (`slo.tenant<N>.window_*`, Volatile) and run
     * breach detection against the configured threshold.  Called by
     * the telemetry publisher's collector before each scrape.
     */
    void publishGauges(uint64_t now_ns);

    /** Drop all tenants and windowed state (config survives). */
    void reset();

  private:
    friend struct SessionSinks;
    SloMonitor() = default;

    struct Bucket {
        uint64_t seq = 0; ///< absolute bucket ordinal (now / bucket_ns)
        uint64_t ops = 0;
        uint64_t errors = 0;
        std::vector<uint64_t> counts; ///< per latency-ladder bucket
    };

    struct Tenant {
        std::vector<Bucket> ring;
        uint64_t total_ops = 0;    // exact
        uint64_t total_errors = 0; // exact
        uint64_t breaches = 0;     // volatile
        bool breached = false;     // edge-trigger state
    };

    Bucket &bucketFor(Tenant &t, uint64_t now_ns);
    void windowLocked(const Tenant &t, uint64_t now_ns,
                      SloWindow &out) const;

    mutable std::mutex mu_;
    Config cfg_;
    std::map<uint32_t, Tenant> tenants_;
};

/** The fixed latency ladder (ascending upper bounds, microseconds)
 *  shared by every SLO bucket; exposed for the oracle tests. */
const std::vector<uint64_t> &sloLatencyBounds();

} // namespace nvbit::obs

#endif // NVBIT_OBS_SLO_HPP
