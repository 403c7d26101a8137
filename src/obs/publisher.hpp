/**
 * @file
 * Live telemetry publisher: a background thread that periodically
 * snapshots the MetricsRegistry in Prometheus text-exposition format
 * and serves it to scrapers while the process runs.
 *
 * Two transports, chosen by the `NVBIT_SIM_TELEMETRY` path:
 *
 *  - `unix:<path>` — listen on a Unix-domain stream socket; each
 *    accepted connection receives one full exposition payload and is
 *    closed (a scrape, in Prometheus terms).  `nvbit_run --watch
 *    unix:<path>` is the matching one-shot client.
 *  - anything else — a plain file rewritten in place (write-to-temp +
 *    rename, so readers never see a torn payload) every period, but
 *    only when the registry epoch actually changed since the last
 *    write.
 *
 * Before each snapshot the publisher runs an optional *collector*
 * callback — the driver hands the observability session one at cuInit
 * (obs/session.hpp) that samples instantaneous queue depths from the
 * stream service and refreshes the SLO window gauges.  Lock order:
 * publisher mutex, then whatever the collector takes (stream-service
 * mutex, SLO mutex), then the registry mutex inside toPrometheus();
 * the session stops the publisher before the driver tears anything
 * down, so the collector never races a dying service.
 *
 * Passivity: the publisher reads counters, it never writes them, and
 * nothing in the simulated-cycle path knows it exists — telemetry on
 * vs off cannot change a single exact counter.
 */
#ifndef NVBIT_OBS_PUBLISHER_HPP
#define NVBIT_OBS_PUBLISHER_HPP

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace nvbit::obs {

/**
 * Singleton publisher.  start()/stop() are idempotent; stop() joins
 * the thread and (file mode) leaves a final up-to-date payload behind.
 */
class TelemetryPublisher
{
  public:
    static TelemetryPublisher &instance();

    /** Ran before every snapshot to refresh gauges (may be empty). */
    using Collector = std::function<void()>;

    /** Install (or clear, with nullptr) the pre-snapshot collector. */
    void setCollector(Collector c);

    /**
     * Start publishing to @p path every @p period_ms milliseconds.
     * `unix:`-prefixed paths select the socket transport.  No-op if
     * already running.  Returns false when the transport could not be
     * set up (bad socket path, unwritable file).
     */
    bool start(std::string path, uint64_t period_ms);

    /** Stop and join the background thread; file mode writes one final
     *  snapshot so the file equals the end state.  Idempotent. */
    void stop();

    bool running() const;

    /** Collector + toPrometheus(), synchronously (tests and the final
     *  stop() write use this; the background thread shares it).  When
     *  @p epoch_out is non-null it receives the registry epoch the
     *  payload was serialised under — the collector's writes land
     *  before the snapshot, so they are part of it and never retrigger
     *  the file-mode staleness check. */
    std::string scrapeOnce(uint64_t *epoch_out = nullptr);

    /** Snapshots served/written so far (tests). */
    uint64_t scrapeCount() const;

  private:
    friend struct SessionSinks;
    TelemetryPublisher() = default;

    void runFile();
    void runSocket();
    bool writeFileSnapshot(const std::string &payload);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    Collector collector_;
    std::thread thread_;
    std::string path_;       // file path, or socket path (sans unix:)
    bool socket_mode_ = false;
    int listen_fd_ = -1;
    uint64_t period_ms_ = 100;
    bool running_ = false;
    bool stop_requested_ = false;
    uint64_t scrapes_ = 0;
    uint64_t last_epoch_ = ~0ull; // force the first file write
};

} // namespace nvbit::obs

#endif // NVBIT_OBS_PUBLISHER_HPP
