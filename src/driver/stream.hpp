/**
 * @file
 * Driver-internal stream/event state and the stream service.
 *
 * The public entry points (cuStreamCreate, cuEventRecord, the async
 * memcpys, ...) live in driver/api.hpp; this header holds the object
 * layouts behind CUstream / CUevent plus the service that executes
 * queued work — the driver-side analogue of the GPU's front-end
 * queues and copy engines.
 *
 * Design
 * ------
 * Every context owns a *default stream* (the legacy "null stream") and
 * any number of explicit streams.  Work items (kernel launches, async
 * copies, event records, event waits) are enqueued as StreamOps, each
 * stamped with a context-wide sequence number.  One worker thread per
 * simulated GPU picks runnable ops with a round-robin cursor over the
 * contexts bound to that GPU (the fairness guarantee: a launch-spamming
 * tenant cannot starve its neighbours), honouring:
 *
 *  - FIFO order within a stream;
 *  - legacy-stream semantics: a default-stream op does not start while
 *    any *earlier* op of another stream of the same context is queued
 *    or running, and no other-stream op enqueued *after* it starts
 *    before it completes (sequence numbers give "earlier" a precise,
 *    per-context meaning);
 *  - cuStreamWaitEvent: the op is held until the event generation
 *    captured at call time has completed.
 *
 * Every op enters through submit().  A *waited* op (a legacy launch, or
 * any launch while an NVBit tool is attached) blocks its caller until
 * it completes; when it targets the default stream of an idle context
 * and the service is not paused it runs inline on the calling thread,
 * otherwise it queues like any other op.  Inline or queued, an op runs
 * the same execute() and retires through the same completeOpLocked().
 *
 * Queues are bounded (NVBIT_SIM_STREAM_QUEUE_DEPTH, default 64): an
 * async enqueue on a full stream fails fast with
 * CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES instead of growing without bound —
 * callers are expected to synchronise and retry (retry-after
 * semantics).  Waited ops are exempt: the calling thread is its own
 * backpressure.
 *
 * Fault domains: a device exception poisons only the owning context
 * (sticky error); queued ops of a poisoned context complete
 * immediately with the sticky error, other tenants never observe it.
 * An infinite-loop kernel is reclaimed by the simulator's cycle
 * watchdog, which surfaces here as a failed launch op — the
 * watchdog → kill → sticky error → cuDevicePrimaryCtxReset escalation
 * chain documented in docs/driver_service.md.
 */
#ifndef NVBIT_DRIVER_STREAM_HPP
#define NVBIT_DRIVER_STREAM_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "driver/api.hpp"
#include "sim/launch.hpp"

namespace nvbit::cudrv {

struct CUctx_st;
struct CUfunc_st;

/** An event: a marker recorded into a stream.  Each cuEventRecord
 *  bumps the record generation; completion of that record op raises
 *  the completed generation, which is what queries, synchronisation
 *  and cuStreamWaitEvent gate on. */
struct CUevt_st {
    CUctx_st *ctx = nullptr;
    /** Generation assigned to the most recent cuEventRecord. */
    uint64_t record_gen = 0;
    /** Highest generation whose record op has completed. */
    uint64_t complete_gen = 0;
    /** Wall-clock time (ns) the newest completed record finished. */
    uint64_t complete_ns = 0;
    /** Trace flow id of the most recent record op (dependency-edge
     *  plumbing: a later cuStreamWaitEvent captures this alongside
     *  the generation, so the timeline can draw record → wait arrows).
     *  0 while tracing is disabled. */
    uint64_t record_flow = 0;
};

/** One unit of work submitted to the stream service. */
struct StreamOp {
    enum class Kind : uint8_t {
        Launch,
        CopyHtoD,
        CopyDtoH,
        EventRecord,
        WaitEvent,
    };

    Kind kind = Kind::Launch;
    CUctx_st *ctx = nullptr;
    /** Context-wide enqueue ordinal (legacy-stream gating). */
    uint64_t seq = 0;

    // Launch payload.
    CUfunc_st *fn = nullptr;
    sim::LaunchParams lp;

    // Copy payload.  Host pointers must stay valid until the op
    // completes (standard CUDA async-copy contract).
    CUdeviceptr dptr = 0;
    const void *src_host = nullptr;
    void *dst_host = nullptr;
    size_t bytes = 0;

    // Event payload.  `event_gen` is the generation this record
    // completes; `wait_gen` the generation a WaitEvent was captured
    // against (0 = nothing to wait for).  `event` is nulled if the
    // event is destroyed while the op is still queued.
    CUevt_st *event = nullptr;
    uint64_t event_gen = 0;
    uint64_t wait_gen = 0;

    /** The submitter blocks in submit() until this op completes and
     *  gets its result there, so a failure is not also deferred to the
     *  stream's next query or synchronisation.  False for ops restored
     *  from a queue snapshot: nobody waits for them. */
    bool waited = false;
    /** True once executed or cancelled; `result` is then final. */
    bool done = false;
    CUresult result = CUDA_SUCCESS;

    // Telemetry stamps (ns, monotonic clock).  The three stamps split
    // the client-observed latency exactly:
    //   queue_wait = head_ns     - enqueue_ns  (behind earlier ops in
    //                                           the same stream)
    //   gate_wait  = dispatch_ns - head_ns     (runnable-but-held:
    //                                           legacy gating, event
    //                                           waits, worker busy)
    //   execute    = complete    - dispatch_ns (on the device)
    // and queue_wait + gate_wait + execute == complete - enqueue_ns by
    // construction.  `head_ns` is stamped when the op becomes its
    // stream's front (at enqueue into an idle stream, or when the
    // previous op completes); `dispatch_ns` when a worker picks it, or
    // at enqueue for an op that runs inline.
    uint64_t enqueue_ns = 0;
    uint64_t head_ns = 0;
    uint64_t dispatch_ns = 0;

    /** Chrome-trace flow id linking this op's enqueue (tenant track)
     *  to its execution and completion (worker track); 0 while tracing
     *  is disabled. */
    uint64_t flow_id = 0;
    /** Dependency-edge flow id: for an EventRecord, the id the record
     *  *publishes* (flow begin at record completion); for a WaitEvent,
     *  the id captured from the event at enqueue (flow end at wait
     *  completion).  0 = no edge. */
    uint64_t dep_flow = 0;
};

/** A stream: a FIFO of StreamOps bound to one context. */
struct CUstream_st {
    CUctx_st *ctx = nullptr;
    /** Per-context stream id; 0 is the default (legacy/null) stream. */
    uint32_t id = 0;
    bool is_default = false;

    // Guarded by the stream service mutex.
    std::deque<std::shared_ptr<StreamOp>> q;
    bool running = false;
    uint64_t running_seq = 0;
    /** cuStreamDestroy in progress: the handle is retired (new
     *  enqueues fail) while the remaining work drains. */
    bool destroying = false;
    /** First failure of an *async* op since the last synchronisation
     *  (sticky context errors are reported separately). */
    CUresult deferred_error = CUDA_SUCCESS;
};

namespace detail {

/**
 * The per-process stream service: owns one worker thread per simulated
 * GPU and all queue/scheduling state.  The driver starts it from
 * cuInit and stops it from resetDriver, or — when the process exits
 * without one — the observability session's exit handler stops it
 * before any artifact is written (teardown cancels every queued op and
 * waits for in-flight ones — the stream analogue of the event_groups
 * teardown contract).
 */
class StreamService
{
  public:
    static StreamService &instance();

    /** Spawn @p num_gpus workers; reads NVBIT_SIM_STREAM_QUEUE_DEPTH. */
    void start(unsigned num_gpus);

    /**
     * Cancel all queued ops (CUDA_ERROR_DEINITIALIZED), wait for
     * in-flight ones (bounded by the device watchdog) and join the
     * workers.  Idempotent.
     */
    void stop();

    /** Bind @p ctx (already carrying gpu_index) to its GPU's
     *  scheduling list and create its default stream. */
    void registerContext(CUctx_st *ctx);

    /**
     * cuCtxDestroy/reset path: cancel queued ops
     * (CUDA_ERROR_INVALID_CONTEXT), wait for the in-flight one, then
     * unlink the context, its streams and its events from the service.
     */
    void drainContext(CUctx_st *ctx);

    // -- Stream / event lifetime (all validate handles) -------------

    CUresult streamCreate(CUctx_st *ctx, CUstream *out);
    CUresult streamDestroy(CUstream s);
    CUresult eventCreate(CUctx_st *ctx, CUevent *out);
    CUresult eventDestroy(CUevent ev);

    /** @return true if @p s is live *and* belongs to @p ctx (one lock
     *  acquisition, so the ctx check never dereferences a dead handle). */
    bool streamBelongsTo(CUstream s, const CUctx_st *ctx) const;

    // -- Submission -------------------------------------------------

    /**
     * The one way work enters the service.  An unwaited op is queued on
     * @p s and the call returns at once, subject to the bounded-queue
     * backpressure contract (CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES).  A
     * waited op returns its own result: inline on this thread when
     * @p s is the default stream of an idle context and the service is
     * not paused, otherwise queued with this thread blocked until it
     * completes.  Handle validation (stream *and* op->event) happens
     * here, under the same lock hold that captures the event
     * generation: validating in the public entry point and
     * dereferencing here would leave a cuEventDestroy window between
     * the two lock acquisitions.
     */
    CUresult submit(CUstream s, std::shared_ptr<StreamOp> op, bool waited);

    // -- Synchronisation --------------------------------------------

    CUresult streamSynchronize(CUstream s);
    CUresult streamQuery(CUstream s);
    CUresult streamWaitEvent(CUstream s, CUevent ev, unsigned flags);
    CUresult eventRecord(CUevent ev, CUstream s);
    CUresult eventSynchronize(CUevent ev);
    CUresult eventQuery(CUevent ev);
    CUresult eventElapsed(float *ms, CUevent start, CUevent end);

    /** Wait until every stream of @p ctx is idle. */
    void syncContext(CUctx_st *ctx);

    /**
     * Telemetry collector hook: publish instantaneous per-tenant
     * queue-depth gauges (`driver.tenant<N>.queue_depth`, Volatile)
     * into the MetricsRegistry.  Called by the telemetry publisher
     * before each scrape; samples under the service mutex, publishes
     * after releasing it.
     */
    void sampleTelemetry();

    // -- Checkpoint support (docs/simpoint.md) ----------------------

    /**
     * Stop dispatching queued work and wait for in-flight ops to
     * finish.  Queued ops stay queued; enqueues still work.  While
     * paused the queue state is stable, so it can be captured or
     * restored consistently.
     */
    void pause();

    /** Resume dispatching after pause(). */
    void unpause();

    bool paused() const;

    /**
     * Value snapshot of one context's pending stream work, capturable
     * only while paused.  Same-process restore contract: ops carry raw
     * context/event/host pointers, so a snapshot is only meaningful to
     * restore into the process (and context) that captured it —
     * checkpoint/restore here models rewinding a live driver, not
     * serialising one.  `entries` is public on purpose: a caller that
     * resumes a mid-launch device capsule drops the head entry (the op
     * the capsule supersedes) before restoring.
     */
    struct QueueSnapshot {
        struct Entry {
            uint32_t stream_id = 0; ///< CUstream_st::id within the ctx
            StreamOp op;            ///< by value (done ops excluded)
        };
        /** Pending ops in ascending seq order (per-stream FIFO order
         *  is a subsequence of this). */
        std::vector<Entry> entries;
        uint64_t next_seq = 0;
        /** Event generation state, parallel to CUctx_st::events. */
        struct EventGen {
            uint64_t record_gen = 0;
            uint64_t complete_gen = 0;
            uint64_t complete_ns = 0;
        };
        std::vector<EventGen> events;
    };

    /** Capture @p ctx's queued ops + event generations (paused only). */
    QueueSnapshot captureQueues(const CUctx_st *ctx) const;

    /**
     * Replace @p ctx's queued ops + event generations with @p snap
     * (paused only).  Streams referenced by the snapshot must still
     * exist; ops currently queued are discarded.
     */
    void restoreQueues(CUctx_st *ctx, const QueueSnapshot &snap);

  private:
    StreamService() = default;

    struct GpuQueue {
        std::vector<CUctx_st *> ctxs; ///< contexts bound to this GPU
        size_t cursor = 0;            ///< fairness cursor
    };

    /** Pick the next runnable op for GPU @p g (mu_ held); null when
     *  nothing is ready.  Marks the stream running. */
    std::shared_ptr<StreamOp> pickReady(unsigned g, CUstream_st **out_s);

    bool headReady(const CUctx_st *ctx, const CUstream_st *s) const;

    /** Run a launch or copy @p op on its context's GPU (no locks
     *  held); sets its result.  Marker ops never get here: they are
     *  never waited, and the worker retires them under mu_. */
    void execute(StreamOp &op);
    void workerLoop(unsigned g);

    /** Completion bookkeeping for a running op, inline or dispatched
     *  (mu_ held): clears the stream's running flag, folds an unwaited
     *  failure into the stream's deferred error, accounts the op to
     *  its tenant, retires it and wakes waiters. */
    void completeOpLocked(CUstream_st *s, StreamOp &op);

    /** What completion and cancellation share (mu_ held): mark @p op
     *  done, complete the generation an EventRecord publishes, and
     *  close its dependency flow edge on trace track @p tid. */
    void retireOpLocked(StreamOp &op, uint64_t now, int tid);

    /** @return true while @p ctx is on a GPU scheduling list.  Pointer
     *  comparison only — safe on stale/freed pointers (mu_ held). */
    bool registeredLocked(const CUctx_st *ctx) const;

    /** Cancel every queued op of @p s with @p r (mu_ held). */
    void cancelStreamLocked(CUstream_st *s, CUresult r);

    /** Null out references to @p ev in queued ops (mu_ held). */
    void scrubEventLocked(CUevt_st *ev);

    bool streamIdleLocked(const CUstream_st *s) const
    {
        return s->q.empty() && !s->running;
    }

    /** Every stream of @p ctx is idle (mu_ held). */
    bool contextIdleLocked(const CUctx_st *ctx) const;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    std::vector<GpuQueue> gpus_;
    std::set<CUstream_st *> live_streams_;
    std::set<CUevt_st *> live_events_;
    size_t queue_cap_ = 64;
    bool running_ = false;
    bool stop_ = false;
    /** Dispatch is suspended (checkpoint capture/restore window). */
    bool paused_ = false;
};

} // namespace detail

} // namespace nvbit::cudrv

#endif // NVBIT_DRIVER_STREAM_HPP
