/**
 * @file
 * Structured leveled JSON-lines logger with a bounded in-memory ring.
 *
 * Call sites log one record — level, component, message, optional
 * key/value fields — and the logger keeps the newest `kRingCap`
 * records in memory.  Nothing touches disk on the log path; the ring
 * is written (rewrite-in-place, one JSON object per line) on
 * `flush()`, at process exit, and on the driver fault path alongside
 * the other exporters, so a crashing run still leaves its last few
 * thousand records on disk.
 *
 * Enable with `NVBIT_SIM_LOG=<path>`; `NVBIT_SIM_LOG_LEVEL` picks the
 * minimum level (`debug`/`info`/`warn`/`error`, default `info`).  The
 * observability session (obs/session.hpp) reads both at start and owns
 * every flush.
 * When disabled, emission is a single relaxed atomic load — the same
 * passivity contract as the tracer.
 */
#ifndef NVBIT_OBS_LOG_HPP
#define NVBIT_OBS_LOG_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nvbit::obs {

enum class LogLevel : int {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/** Level name as it appears in the JSON record ("debug".."error"). */
std::string_view logLevelName(LogLevel lv);

/** One structured field: key plus a raw string value (JSON-escaped on
 *  write; numeric values go through std::to_string at the call site). */
using LogField = std::pair<std::string, std::string>;

/**
 * Singleton bounded-ring logger.  All methods are thread-safe; the
 * mutex is a leaf — log() does a few string moves under it, never I/O
 * (flush() does the I/O, still under the lock, but only the exporter
 * paths call it).
 */
class StructuredLog
{
  public:
    /** The process-wide logger (first use starts the observability
     *  session, which reads NVBIT_SIM_LOG[_LEVEL]). */
    static StructuredLog &instance();

    /** Whether records at @p lv are currently being collected. */
    bool enabled(LogLevel lv) const
    {
        return enabled_.load(std::memory_order_relaxed) &&
               static_cast<int>(lv) >=
                   min_level_.load(std::memory_order_relaxed);
    }

    /** Start collecting; the ring goes to @p path on flush. */
    void enableToFile(std::string path, LogLevel min = LogLevel::Info);

    /** Stop collecting, flush the ring, clear state.  Returns the
     *  path written ("" if logging was not enabled). */
    std::string disableAndFlush();

    /** Append one record (dropped silently when below the level or
     *  disabled).  @p fields values are raw strings, escaped on write. */
    void log(LogLevel lv, std::string_view component,
             std::string_view msg, std::vector<LogField> fields = {});

    /**
     * Rewrite the file with the ring's current contents without
     * disabling anything (the fault-path flush).  Returns the path
     * written ("" when disabled).
     */
    std::string flush();

    /** Records currently retained (tests). */
    size_t size() const;

    /** Records evicted from the ring so far. */
    uint64_t dropped() const;

  private:
    friend struct SessionSinks;
    StructuredLog() = default;

    struct Record {
        uint64_t ts_us;
        LogLevel lv;
        std::string component, msg;
        std::vector<LogField> fields;
    };

    bool writeLocked() const;

    static constexpr size_t kRingCap = 4096;

    std::atomic<bool> enabled_{false};
    std::atomic<int> min_level_{static_cast<int>(LogLevel::Info)};
    mutable std::mutex mu_;
    std::string path_;
    uint64_t epoch_ns_ = 0;
    std::deque<Record> ring_;
    uint64_t dropped_ = 0;
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_LOG_HPP
