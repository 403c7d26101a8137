/**
 * @file
 * The observability session: the one owner of when the `src/obs` sinks
 * start, flush and stop, and in what order (docs/observability.md,
 * "Lifecycle").  Start happens on the first `instance()` of any sink:
 * it reads the `src/obs` variables (an empty value means unset,
 * integers follow parseEnvU64), enables the tracer and the log, applies
 * the history cap and the SLO threshold, and registers the one
 * process-exit handler.  That handler runs, in order: the driver's
 * drain, publisher stop, tracer and log flush, then the metrics,
 * profile and sanitizer exports.  Export paths are read when written.
 */
#ifndef NVBIT_OBS_SESSION_HPP
#define NVBIT_OBS_SESSION_HPP

#include <functional>

namespace nvbit::obs::session {

/**
 * cuInit: re-apply the settings, keep @p drain (stops the stream
 * service; the exit handler runs it first), install the telemetry
 * @p collector and start the publisher if `NVBIT_SIM_TELEMETRY` is set.
 */
void driverUp(std::function<void()> collector, std::function<void()> drain);

/** resetDriver, before the stream service stops: stop the publisher
 *  (final payload), flush the log, drop the SLO windows. */
void driverDown();

/** Fault path: every export, a tracer snapshot and the log ring. */
void flush();

/** Re-read and apply `NVBIT_SIM_METRICS_HISTORY` and
 *  `NVBIT_SIM_SLO_P99_US` (start and driverUp do this too). */
void applySettings();

} // namespace nvbit::obs::session

#endif // NVBIT_OBS_SESSION_HPP
