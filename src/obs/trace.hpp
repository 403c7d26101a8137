/**
 * @file
 * Chrome trace-event timeline exporter (Perfetto / `chrome://tracing`
 * compatible).
 *
 * Every layer of the stack emits spans and instants here: the driver
 * records API-level spans (kernel launches, memcpys with byte counts,
 * module loads, context resets) and fault instants; the NVBit core
 * records JIT spans (instrument, code swap); the simulator records
 * per-SM CTA residency.  The output is the JSON object form of the
 * trace-event format: `{"traceEvents": [...]}` with `ph:"X"` complete
 * events, `ph:"i"` instants, and `ph:"M"` metadata naming the tracks.
 *
 * Track layout: pid 0 is the host (`tid` 0 = driver API, `tid` 1 =
 * NVBit JIT), pid 1 is the simulated device with one `tid` per SM.
 * Timestamps are wall-clock microseconds relative to the moment
 * tracing was enabled.
 *
 * Enable with `NVBIT_SIM_TRACE=<path>` (the observability session,
 * obs/session.hpp, enables it at start and flushes it at process exit)
 * or programmatically via `enableToFile` / `disableAndFlush` (tests).
 * When disabled, emission is a single relaxed atomic load.
 */
#ifndef NVBIT_OBS_TRACE_HPP
#define NVBIT_OBS_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nvbit::obs {

/** Track ids used across the stack (see file comment). */
inline constexpr int kHostPid = 0;
inline constexpr int kDevicePid = 1;
inline constexpr int kHostApiTid = 0;
inline constexpr int kHostJitTid = 1;

/**
 * One `args` entry of a trace event: key plus a *pre-encoded* JSON
 * value (use `argU64` / `argStr` instead of building these by hand).
 */
using TraceArg = std::pair<std::string, std::string>;

/** Build a numeric trace-event argument. */
TraceArg argU64(std::string_view key, uint64_t value);
/** Build a string trace-event argument (value gets JSON-escaped). */
TraceArg argStr(std::string_view key, std::string_view value);

/**
 * Singleton trace-event collector.  Events are buffered in memory and
 * written as one JSON document on flush; emission when disabled costs
 * one atomic load, so call sites do not need their own gating (hot
 * paths may still check `enabled()` to skip argument formatting).
 */
class Tracer
{
  public:
    /** The process-wide tracer (first use starts the observability
     *  session, which reads NVBIT_SIM_TRACE). */
    static Tracer &instance();

    /** Whether events are currently being collected. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Start collecting; the JSON goes to @p path on flush. */
    void enableToFile(std::string path);

    /**
     * Stop collecting and write the buffered events to the file given
     * at enable time.  Returns the path written (empty if tracing was
     * not enabled).
     */
    std::string disableAndFlush();

    /**
     * Write the events buffered so far to the enable-time file without
     * disabling or clearing anything — collection continues and a later
     * flush simply rewrites the file with more events.  Used on the
     * fault path so a dying launch still leaves a valid (partial)
     * timeline on disk.  Returns the path written ("" when disabled).
     */
    std::string flushSnapshot();

    /** Microseconds since tracing was enabled (0 when disabled). */
    uint64_t nowUs() const;

    /** Emit a complete (`ph:"X"`) event on track (@p pid, @p tid). */
    void complete(int pid, int tid, std::string_view name,
                  std::string_view cat, uint64_t ts_us, uint64_t dur_us,
                  std::vector<TraceArg> args = {});

    /** Emit an instant (`ph:"i"`, global scope) event. */
    void instant(int pid, int tid, std::string_view name,
                 std::string_view cat, uint64_t ts_us,
                 std::vector<TraceArg> args = {});

    /**
     * Allocate a process-unique flow id (never 0; 0 means "no flow").
     * Cheap enough to call even when tracing is disabled, so callers
     * can stamp ids unconditionally and only emit events when enabled.
     */
    uint64_t newFlowId()
    {
        return next_flow_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * Flow events: a begin (`ph:"s"`), any number of steps (`ph:"t"`)
     * and an end (`ph:"f"`, binding point `"e"` so viewers attach the
     * arrowhead to the *enclosing* slice) sharing @p id draw an arrow
     * across tracks — this is how a stream op's enqueue on a tenant
     * thread is linked to its execution on a pool-GPU worker.  All
     * three events of a flow must use the same @p name and @p cat.
     */
    void flowBegin(int pid, int tid, std::string_view name,
                   std::string_view cat, uint64_t ts_us, uint64_t id,
                   std::vector<TraceArg> args = {});
    void flowStep(int pid, int tid, std::string_view name,
                  std::string_view cat, uint64_t ts_us, uint64_t id,
                  std::vector<TraceArg> args = {});
    void flowEnd(int pid, int tid, std::string_view name,
                 std::string_view cat, uint64_t ts_us, uint64_t id,
                 std::vector<TraceArg> args = {});

    /** Name a track once (`ph:"M"` thread_name; deduplicated). */
    void nameThread(int pid, int tid, std::string_view name);

    /** Name a process once (`ph:"M"` process_name; deduplicated). */
    void nameProcess(int pid, std::string_view name);

  private:
    friend struct SessionSinks;
    Tracer() = default;

    struct Event {
        char ph;
        int pid, tid;
        uint64_t ts, dur;
        std::string name, cat, args_json;
        uint64_t flow_id = 0; // ph s/t/f only
    };

    void push(Event ev);
    void flowEvent(char ph, int pid, int tid, std::string_view name,
                   std::string_view cat, uint64_t ts_us, uint64_t id,
                   std::vector<TraceArg> args);
    void emitProcessNames();
    /** Write events_ to path_ as a complete JSON doc (mu_ held). */
    bool writeLocked() const;
    static std::string encode(const Event &ev);

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> next_flow_id_{0};
    mutable std::mutex mu_;
    std::string path_;
    uint64_t epoch_ns_ = 0;
    std::vector<Event> events_;
    std::set<std::pair<int, int>> named_threads_;
    std::set<int> named_processes_;
};

/**
 * RAII span: captures the start time at construction and emits a
 * complete event at destruction.  Construction when tracing is off
 * costs one atomic load and emits nothing.
 */
class TraceSpan
{
  public:
    TraceSpan(int pid, int tid, std::string_view name,
              std::string_view cat)
        : live_(Tracer::instance().enabled()), pid_(pid), tid_(tid)
    {
        if (live_) {
            name_ = name;
            cat_ = cat;
            start_ = Tracer::instance().nowUs();
        }
    }

    /** Attach an argument to the event (no-op when tracing is off). */
    void arg(std::string_view key, uint64_t value)
    {
        if (live_)
            args_.push_back(argU64(key, value));
    }
    void arg(std::string_view key, std::string_view value)
    {
        if (live_)
            args_.push_back(argStr(key, value));
    }

    ~TraceSpan()
    {
        if (live_) {
            Tracer &t = Tracer::instance();
            uint64_t end = t.nowUs();
            t.complete(pid_, tid_, name_, cat_, start_,
                       end > start_ ? end - start_ : 0,
                       std::move(args_));
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    bool live_;
    int pid_, tid_;
    uint64_t start_ = 0;
    std::string name_, cat_;
    std::vector<TraceArg> args_;
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_TRACE_HPP
