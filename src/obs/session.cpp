#include "obs/session.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/publisher.hpp"
#include "obs/sanitizer.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace nvbit::obs {

/** The seven sinks, built together on the first use of any.  Leaked:
 *  the exit handler, and the stream ops it drains, outlive static
 *  destruction. */
struct SessionSinks {
    MetricsRegistry metrics;
    Tracer tracer;
    Profiler profiler;
    Sanitizer sanitizer;
    StructuredLog log;
    SloMonitor slo;
    TelemetryPublisher publisher;
    std::mutex mu; ///< guards drain; serialises the export writes
    std::function<void()> drain;
};

namespace {

/** Every `src/obs` variable but NVBIT_SIM_SANCHECK_FATAL, which the
 *  sanitizer re-reads per finding.  An empty string means unset. */
struct SessionEnv {
    std::string metrics, trace, profile, sancheck_report, log, telemetry;
    LogLevel log_level = LogLevel::Info;
    std::optional<uint64_t> history_cap, slo_p99_us;
    uint64_t telemetry_period_ms = 100;
};

SessionEnv
readEnv()
{
    auto str = [](const char *v) { return std::string(v ? v : ""); };
    SessionEnv e;
    e.metrics = str(std::getenv("NVBIT_SIM_METRICS"));
    e.trace = str(std::getenv("NVBIT_SIM_TRACE"));
    e.profile = str(std::getenv("NVBIT_SIM_PROFILE"));
    e.sancheck_report = str(std::getenv("NVBIT_SIM_SANCHECK_REPORT"));
    e.log = str(std::getenv("NVBIT_SIM_LOG"));
    e.telemetry = str(std::getenv("NVBIT_SIM_TELEMETRY"));
    const std::string level = str(std::getenv("NVBIT_SIM_LOG_LEVEL"));
    if (level == "debug")
        e.log_level = LogLevel::Debug;
    else if (level == "warn")
        e.log_level = LogLevel::Warn;
    else if (level == "error")
        e.log_level = LogLevel::Error;
    e.history_cap = parseEnvU64("NVBIT_SIM_METRICS_HISTORY",
                                std::getenv("NVBIT_SIM_METRICS_HISTORY"),
                                1, SIZE_MAX);
    e.slo_p99_us = parseEnvU64("NVBIT_SIM_SLO_P99_US",
                               std::getenv("NVBIT_SIM_SLO_P99_US"), 0,
                               UINT64_MAX);
    // Capped at an hour: the publisher's timed wait must not overflow.
    e.telemetry_period_ms =
        parseEnvU64("NVBIT_SIM_TELEMETRY_PERIOD_MS",
                    std::getenv("NVBIT_SIM_TELEMETRY_PERIOD_MS"), 1,
                    3600000)
            .value_or(100);
    return e;
}

void
apply(SessionSinks &s, const SessionEnv &e)
{
    if (e.history_cap)
        s.metrics.setLaunchRecordCap(*e.history_cap);
    if (e.slo_p99_us)
        s.slo.setP99Threshold(*e.slo_p99_us);
}

/** The metrics, profile and sanitizer exports, to the paths set now. */
void
writeExports(SessionSinks &s)
{
    const SessionEnv e = readEnv();
    std::lock_guard<std::mutex> lk(s.mu);
    auto write = [](const char *what, const std::string &path,
                    const auto &sink) {
        if (path.empty())
            return;
        const std::string body = sink.toJson();
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            warn("cannot write the %s export to %s", what, path.c_str());
            return;
        }
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
    };
    write("metrics", e.metrics, s.metrics);
    write("profile", e.profile, s.profiler);
    write("sanitizer", e.sancheck_report, s.sanitizer);
}

SessionSinks &sinks();

void
onExit()
{
    SessionSinks &s = sinks();
    std::function<void()> drain;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        drain = s.drain;
    }
    if (drain)
        drain();
    s.publisher.stop();
    s.tracer.disableAndFlush();
    s.log.disableAndFlush();
    writeExports(s);
}

/** Start.  Configures the new sinks directly: an instance() call from
 *  here would re-enter sinks() during its own initialisation. */
SessionSinks *
start(SessionSinks *s)
{
    const SessionEnv e = readEnv();
    if (!e.trace.empty())
        s->tracer.enableToFile(e.trace);
    if (!e.log.empty())
        s->log.enableToFile(e.log, e.log_level);
    apply(*s, e);
    std::atexit(onExit);
    return s;
}

SessionSinks &
sinks()
{
    static SessionSinks *s = start(new SessionSinks());
    return *s;
}

} // namespace

// Every sink's instance(): the first call of any starts the session.
MetricsRegistry &MetricsRegistry::instance() { return sinks().metrics; }
Tracer &Tracer::instance() { return sinks().tracer; }
Profiler &Profiler::instance() { return sinks().profiler; }
Sanitizer &Sanitizer::instance() { return sinks().sanitizer; }
StructuredLog &StructuredLog::instance() { return sinks().log; }
SloMonitor &SloMonitor::instance() { return sinks().slo; }
TelemetryPublisher &TelemetryPublisher::instance() { return sinks().publisher; }

namespace session {

void
driverUp(std::function<void()> collector, std::function<void()> drain)
{
    SessionSinks &s = sinks();
    const SessionEnv e = readEnv();
    apply(s, e);
    {
        std::lock_guard<std::mutex> lk(s.mu);
        s.drain = std::move(drain);
    }
    s.publisher.setCollector(std::move(collector));
    if (!e.telemetry.empty())
        s.publisher.start(e.telemetry, e.telemetry_period_ms);
}

void
driverDown()
{
    SessionSinks &s = sinks();
    s.publisher.stop();
    s.log.flush();
    s.slo.reset();
}

void
flush()
{
    SessionSinks &s = sinks();
    writeExports(s);
    s.tracer.flushSnapshot();
    s.log.flush();
}

void
applySettings()
{
    apply(sinks(), readEnv());
}

} // namespace session

} // namespace nvbit::obs
