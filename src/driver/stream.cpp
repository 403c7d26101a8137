#include "driver/stream.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "driver/internal.hpp"
#include "mem/device_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace nvbit::cudrv {
namespace detail {

namespace {

/** Trace-track tid base for the per-GPU stream-engine workers (the
 *  host API thread is tid 0; device SMs live on their own pid). */
constexpr int kStreamEngineTidBase = 900;

/** Trace-track tid base for tenant client threads: tenant N's enqueues
 *  land on tid 100+N, so flow arrows visibly cross from the tenant
 *  track to a gpu-worker track (tids 900+). */
constexpr int kTenantTidBase = 100;

const char *
opKindName(StreamOp::Kind k)
{
    switch (k) {
      case StreamOp::Kind::Launch: return "launch";
      case StreamOp::Kind::CopyHtoD: return "memcpy_htod";
      case StreamOp::Kind::CopyDtoH: return "memcpy_dtoh";
      case StreamOp::Kind::EventRecord: return "event_record";
      case StreamOp::Kind::WaitEvent: return "wait_event";
    }
    return "?";
}

} // namespace

StreamService &
StreamService::instance()
{
    // Leaked, like DriverState: the observability session's exit
    // handler stops it, so no static destructor has to.
    static StreamService *svc = new StreamService();
    return *svc;
}

void
StreamService::start(unsigned num_gpus)
{
    std::lock_guard<std::mutex> lk(mu_);
    NVBIT_ASSERT(!running_, "stream service already running");
    queue_cap_ = parseEnvU64("NVBIT_SIM_STREAM_QUEUE_DEPTH",
                             std::getenv("NVBIT_SIM_STREAM_QUEUE_DEPTH"),
                             1, SIZE_MAX)
                     .value_or(64);
    gpus_.assign(num_gpus, GpuQueue{});
    stop_ = false;
    running_ = true;
    workers_.reserve(num_gpus);
    for (unsigned g = 0; g < num_gpus; ++g)
        workers_.emplace_back([this, g] { workerLoop(g); });
}

void
StreamService::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_)
            return;
        stop_ = true;
        // Teardown contract (mirrors event_groups): queued work is
        // cancelled, never silently dropped — every op completes with
        // CUDA_ERROR_DEINITIALIZED so blocked waiters return.
        for (CUstream_st *s : live_streams_)
            cancelStreamLocked(s, CUDA_ERROR_DEINITIALIZED);
        work_cv_.notify_all();
        done_cv_.notify_all();
    }
    for (std::thread &t : workers_)
        t.join();
    std::lock_guard<std::mutex> lk(mu_);
    workers_.clear();
    gpus_.clear();
    live_streams_.clear();
    live_events_.clear();
    running_ = false;
    stop_ = false;
}

void
StreamService::registerContext(CUctx_st *ctx)
{
    std::lock_guard<std::mutex> lk(mu_);
    NVBIT_ASSERT(running_ && ctx->gpu_index < gpus_.size(),
                 "context registered outside a running service");
    auto def = std::make_unique<CUstream_st>();
    def->ctx = ctx;
    def->id = 0;
    def->is_default = true;
    ctx->default_stream = def.get();
    live_streams_.insert(def.get());
    ctx->streams.push_back(std::move(def));
    gpus_[ctx->gpu_index].ctxs.push_back(ctx);
    obs::MetricsRegistry::instance().defineHistogram(
        tenantMetric(ctx, "launch_latency_us"),
        {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
         100000},
        obs::Stability::Volatile);
    obs::Tracer &tr = obs::Tracer::instance();
    if (tr.enabled())
        tr.nameThread(obs::kHostPid, kTenantTidBase +
                          static_cast<int>(ctx->tenant_id),
                      strfmt("tenant%u client", ctx->tenant_id));
}

void
StreamService::drainContext(CUctx_st *ctx)
{
    std::unique_lock<std::mutex> lk(mu_);
    ctx->dying = true;
    for (auto &sp : ctx->streams)
        cancelStreamLocked(sp.get(), CUDA_ERROR_INVALID_CONTEXT);
    done_cv_.notify_all();
    // The in-flight op (if any) finishes on its worker; a hung launch
    // is bounded by the device watchdog, so this wait terminates.
    done_cv_.wait(lk, [&] {
        return std::all_of(ctx->streams.begin(), ctx->streams.end(),
                           [](const auto &sp) { return !sp->running; });
    });
    for (auto &sp : ctx->streams)
        live_streams_.erase(sp.get());
    for (auto &ep : ctx->events)
        live_events_.erase(ep.get());
    ctx->default_stream = nullptr;
    if (ctx->gpu_index < gpus_.size()) {
        auto &cl = gpus_[ctx->gpu_index].ctxs;
        cl.erase(std::remove(cl.begin(), cl.end(), ctx), cl.end());
        gpus_[ctx->gpu_index].cursor = 0;
    }
}

// --- Stream / event lifetime ---------------------------------------------

CUresult
StreamService::streamCreate(CUctx_st *ctx, CUstream *out)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_)
        return CUDA_ERROR_NOT_INITIALIZED;
    if (ctx->dying)
        return CUDA_ERROR_INVALID_CONTEXT;
    auto s = std::make_unique<CUstream_st>();
    s->ctx = ctx;
    s->id = ctx->next_stream_id++;
    *out = s.get();
    live_streams_.insert(s.get());
    ctx->streams.push_back(std::move(s));
    return CUDA_SUCCESS;
}

CUresult
StreamService::streamDestroy(CUstream s)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!live_streams_.count(s) || s->is_default || s->destroying)
        return CUDA_ERROR_INVALID_HANDLE;
    // CUDA semantics: destruction drains outstanding work first.  The
    // handle is retired immediately (new enqueues fail) and queued
    // cuStreamWaitEvent gates are dropped, so the drain is bounded by
    // real device work (itself bounded by the watchdog) — a head wait
    // whose event can never be recorded (e.g. the recording stream is
    // itself blocked on an event from this one) must not wedge
    // cuStreamDestroy forever.
    s->destroying = true;
    for (auto &op : s->q) {
        if (op->kind == StreamOp::Kind::WaitEvent) {
            op->event = nullptr;
            op->wait_gen = 0;
        }
    }
    work_cv_.notify_all();
    done_cv_.wait(lk, [&] {
        return !live_streams_.count(s) || streamIdleLocked(s);
    });
    if (!live_streams_.count(s))
        return CUDA_ERROR_INVALID_HANDLE;
    live_streams_.erase(s);
    CUctx_st *ctx = s->ctx;
    auto it = std::find_if(ctx->streams.begin(), ctx->streams.end(),
                           [&](const auto &sp) { return sp.get() == s; });
    NVBIT_ASSERT(it != ctx->streams.end(), "live stream not in context");
    ctx->streams.erase(it);
    work_cv_.notify_all();
    return CUDA_SUCCESS;
}

CUresult
StreamService::eventCreate(CUctx_st *ctx, CUevent *out)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_)
        return CUDA_ERROR_NOT_INITIALIZED;
    if (ctx->dying)
        return CUDA_ERROR_INVALID_CONTEXT;
    auto ev = std::make_unique<CUevt_st>();
    ev->ctx = ctx;
    *out = ev.get();
    live_events_.insert(ev.get());
    ctx->events.push_back(std::move(ev));
    return CUDA_SUCCESS;
}

CUresult
StreamService::eventDestroy(CUevent ev)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!live_events_.count(ev))
        return CUDA_ERROR_INVALID_HANDLE;
    scrubEventLocked(ev);
    live_events_.erase(ev);
    CUctx_st *ctx = ev->ctx;
    auto it = std::find_if(ctx->events.begin(), ctx->events.end(),
                           [&](const auto &ep) { return ep.get() == ev; });
    NVBIT_ASSERT(it != ctx->events.end(), "live event not in context");
    ctx->events.erase(it);
    work_cv_.notify_all();
    done_cv_.notify_all();
    return CUDA_SUCCESS;
}

bool
StreamService::streamBelongsTo(CUstream s, const CUctx_st *ctx) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return live_streams_.count(s) != 0 && s->ctx == ctx;
}

void
StreamService::scrubEventLocked(CUevt_st *ev)
{
    // Queued records of a dying event complete its generations so no
    // waiter hangs; queued waits on it become unconditional.
    for (CUstream_st *s : live_streams_) {
        if (s->ctx != ev->ctx)
            continue;
        for (auto &op : s->q) {
            if (op->event != ev)
                continue;
            if (op->kind == StreamOp::Kind::EventRecord) {
                ev->complete_gen =
                    std::max(ev->complete_gen, op->event_gen);
                ev->complete_ns = nowNs();
            }
            op->event = nullptr;
            op->wait_gen = 0;
        }
    }
}

// --- Submission / scheduling ----------------------------------------------

bool
StreamService::contextIdleLocked(const CUctx_st *ctx) const
{
    return std::all_of(ctx->streams.begin(), ctx->streams.end(),
                       [this](const auto &sp) {
                           return streamIdleLocked(sp.get());
                       });
}

CUresult
StreamService::submit(CUstream s, std::shared_ptr<StreamOp> op,
                      bool waited)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_ || stop_)
        return CUDA_ERROR_DEINITIALIZED;
    if (!live_streams_.count(s) || s->destroying)
        return CUDA_ERROR_INVALID_HANDLE;
    // The event handle is validated *here*, under the same lock hold
    // that dereferences it below — a check in the public entry point
    // would leave a cuEventDestroy window before this lock is taken.
    if (op->event && (!live_events_.count(op->event) ||
                      op->event->ctx != s->ctx))
        return CUDA_ERROR_INVALID_HANDLE;
    CUctx_st *ctx = s->ctx;
    if (ctx->dying)
        return CUDA_ERROR_INVALID_CONTEXT;
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    if (!waited && s->q.size() >= queue_cap_) {
        // Backpressure: bounded queues fail fast instead of growing.
        // The caller is expected to synchronise and retry.
        mr.add(tenantMetric(ctx, "queue_rejects"), 1,
               obs::Stability::Volatile);
        return CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES;
    }
    op->ctx = ctx;
    op->seq = ctx->next_seq++;
    op->waited = waited;
    op->enqueue_ns = nowNs();
    // An op entering an idle stream is its head immediately: its
    // queue-wait (time behind earlier same-stream ops) is zero.
    if (streamIdleLocked(s))
        op->head_ns = op->enqueue_ns;
    // Generation capture happens atomically with the enqueue: a
    // record bumps the event's generation, a wait gates on whatever
    // generation is current *now* (CUDA's capture-at-call semantics).
    if (op->kind == StreamOp::Kind::EventRecord && op->event)
        op->event_gen = ++op->event->record_gen;
    if (op->kind == StreamOp::Kind::WaitEvent && op->event)
        op->wait_gen = op->event->record_gen;
    if (waited && s->is_default && !paused_ && contextIdleLocked(ctx)) {
        // Inline: every stream of the context is idle, so legacy
        // ordering holds trivially and the op runs on this thread with
        // no worker handoff (and no trace flow: it never leaves it).
        s->running = true;
        s->running_seq = op->seq;
        op->dispatch_ns = op->enqueue_ns;
        lk.unlock();
        execute(*op);
        lk.lock();
        completeOpLocked(s, *op);
        return op->result;
    }
    obs::Tracer &tr = obs::Tracer::instance();
    if (tr.enabled()) {
        // Causal flow: begin on the tenant's client track here; the
        // worker steps and ends it.  Dependency edges get their own
        // ids so the op flows stay strictly begin/end paired.
        op->flow_id = tr.newFlowId();
        if (op->kind == StreamOp::Kind::EventRecord && op->event) {
            op->dep_flow = tr.newFlowId();
            op->event->record_flow = op->dep_flow;
        } else if (op->kind == StreamOp::Kind::WaitEvent && op->event) {
            op->dep_flow = op->event->record_flow;
        }
        tr.flowBegin(obs::kHostPid,
                     kTenantTidBase + static_cast<int>(ctx->tenant_id),
                     "stream.op", "stream.op", tr.nowUs(), op->flow_id,
                     {obs::argStr("kind", opKindName(op->kind)),
                      obs::argU64("seq", op->seq),
                      obs::argU64("stream", s->id),
                      obs::argU64("tenant", ctx->tenant_id)});
    }
    s->q.push_back(op);
    mr.noteMax(tenantMetric(ctx, "queue_depth_peak"), s->q.size(),
               obs::Stability::Volatile);
    work_cv_.notify_all();
    if (!waited)
        return CUDA_SUCCESS;
    done_cv_.wait(lk, [&] { return op->done; });
    return op->result;
}

bool
StreamService::headReady(const CUctx_st *ctx, const CUstream_st *s) const
{
    if (s->running || s->q.empty())
        return false;
    const StreamOp &op = *s->q.front();
    if (op.kind == StreamOp::Kind::WaitEvent && op.event &&
        op.event->complete_gen < op.wait_gen)
        return false;
    // Legacy-stream gating: the default stream orders against every
    // other stream of its context; explicit streams order against the
    // default stream.  "Earlier" is the context-wide sequence number.
    auto blocks = [&](const CUstream_st *t) {
        if (t == s)
            return false;
        if (t->running && t->running_seq < op.seq)
            return true;
        return !t->q.empty() && t->q.front()->seq < op.seq;
    };
    if (s->is_default) {
        for (const auto &tp : ctx->streams)
            if (blocks(tp.get()))
                return false;
    } else if (ctx->default_stream && blocks(ctx->default_stream)) {
        return false;
    }
    return true;
}

std::shared_ptr<StreamOp>
StreamService::pickReady(unsigned g, CUstream_st **out_s)
{
    GpuQueue &gq = gpus_[g];
    const size_t n = gq.ctxs.size();
    for (size_t i = 0; i < n; ++i) {
        CUctx_st *ctx = gq.ctxs[(gq.cursor + i) % n];
        for (const auto &sp : ctx->streams) {
            CUstream_st *s = sp.get();
            if (!headReady(ctx, s))
                continue;
            std::shared_ptr<StreamOp> op = s->q.front();
            s->q.pop_front();
            s->running = true;
            s->running_seq = op->seq;
            op->dispatch_ns = nowNs();
            if (op->head_ns == 0)
                op->head_ns = op->dispatch_ns; // restored snapshot op
            // Fairness: the next pick starts at the next tenant, so a
            // launch-spamming context cannot monopolise the GPU.
            gq.cursor = (gq.cursor + i + 1) % n;
            *out_s = s;
            return op;
        }
    }
    return nullptr;
}

void
StreamService::execute(StreamOp &op)
{
    // Fault-domain check: ops of a poisoned context fail fast with the
    // sticky error; they never reach the device.
    CUctx_st *ctx = op.ctx;
    if (CUresult e = ctx->sticky_error) {
        op.result = e;
        return;
    }
    if (op.kind == StreamOp::Kind::Launch) {
        op.result = runLaunch(ctx, op.fn, ctx->gpu_index,
                              [&](sim::GpuDevice &gpu) {
                                  return gpu.launch(op.lp);
                              });
        return;
    }
    GpuSlot &slot = gpuSlot(ctx->gpu_index);
    const bool htod = op.kind == StreamOp::Kind::CopyHtoD;
    try {
        std::lock_guard<std::mutex> dev(slot.mu);
        if (htod)
            slot.gpu->memory().write(op.dptr, op.src_host, op.bytes);
        else
            slot.gpu->memory().read(op.dptr, op.dst_host, op.bytes);
    } catch (const mem::DeviceMemory::MemFault &) {
        op.result = CUDA_ERROR_ILLEGAL_ADDRESS;
        return;
    }
    obs::MetricsRegistry::instance().add(
        htod ? "driver.memcpy_htod_bytes" : "driver.memcpy_dtoh_bytes",
        op.bytes);
}

void
StreamService::workerLoop(unsigned g)
{
    obs::Tracer &tr = obs::Tracer::instance();
    if (tr.enabled())
        tr.nameThread(obs::kHostPid, kStreamEngineTidBase + g,
                      strfmt("gpu%u stream engine", g));
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (stop_)
            return;
        if (paused_) {
            work_cv_.wait(lk);
            continue;
        }
        CUstream_st *s = nullptr;
        std::shared_ptr<StreamOp> op = pickReady(g, &s);
        if (!op) {
            work_cv_.wait(lk);
            continue;
        }
        if (op->kind == StreamOp::Kind::EventRecord ||
            op->kind == StreamOp::Kind::WaitEvent) {
            // Marker ops complete without ever dropping mu_: releasing
            // it between the pop and the event bookkeeping would let a
            // concurrent cuEventDestroy free op->event in the window
            // (scrubEventLocked only reaches *queued* ops).
            completeOpLocked(s, *op);
            continue;
        }
        lk.unlock();
        obs::Tracer &wtr = obs::Tracer::instance();
        if (wtr.enabled() && op->flow_id)
            wtr.flowStep(obs::kHostPid, kStreamEngineTidBase + g,
                         "stream.op", "stream.op", wtr.nowUs(),
                         op->flow_id);
        if (op->kind == StreamOp::Kind::Launch && op->fn) {
            obs::TraceSpan span(obs::kHostPid,
                                kStreamEngineTidBase + g,
                                op->lp.label, "driver.stream_launch");
            execute(*op);
        } else {
            execute(*op);
        }
        lk.lock();
        completeOpLocked(s, *op);
    }
}

void
StreamService::completeOpLocked(CUstream_st *s, StreamOp &op)
{
    const uint64_t now = nowNs();
    s->running = false;
    // A waited op's caller has its result; only an unwaited failure is
    // left for the stream's next query or synchronisation.
    if (!op.waited && op.result != CUDA_SUCCESS &&
        s->deferred_error == CUDA_SUCCESS)
        s->deferred_error = op.result;
    // The next op (if any) becomes the stream's head right now — FIFO
    // order means it could not start earlier.
    if (!s->q.empty() && s->q.front()->head_ns == 0)
        s->q.front()->head_ns = now;
    // Critical-path decomposition (ns, exact by construction:
    // queue_wait + gate_wait + execute == now - enqueue_ns).  Every op
    // that runs is stamped at its head and its dispatch, by the worker
    // that picks it or by submit() when it runs inline.
    const uint64_t queue_wait = op.head_ns - op.enqueue_ns;
    const uint64_t gate_wait = op.dispatch_ns - op.head_ns;
    const uint64_t exec_ns = now - op.dispatch_ns;
    const uint64_t latency_ns = now - op.enqueue_ns;
    const bool error = op.result != CUDA_SUCCESS;
    {
        obs::MetricsRegistry::Txn txn(obs::MetricsRegistry::instance());
        txn.add(tenantMetric(op.ctx, "ops_completed"), 1,
                obs::Stability::Volatile);
        if (error)
            txn.add(tenantMetric(op.ctx, "op_errors"), 1,
                    obs::Stability::Volatile);
        txn.add(tenantMetric(op.ctx, "queue_wait_ns"), queue_wait,
                obs::Stability::Volatile);
        txn.add(tenantMetric(op.ctx, "gate_wait_ns"), gate_wait,
                obs::Stability::Volatile);
        txn.add(tenantMetric(op.ctx, "execute_ns"), exec_ns,
                obs::Stability::Volatile);
        if (op.kind == StreamOp::Kind::Launch)
            txn.observe(tenantMetric(op.ctx, "launch_latency_us"),
                        latency_ns / 1000);
    }
    obs::SloMonitor::instance().recordOp(op.ctx->tenant_id,
                                         latency_ns / 1000, error, now);
    const int tid =
        kStreamEngineTidBase + static_cast<int>(op.ctx->gpu_index);
    obs::Tracer &tr = obs::Tracer::instance();
    if (tr.enabled() && op.flow_id)
        tr.flowEnd(obs::kHostPid, tid, "stream.op", "stream.op",
                   tr.nowUs(), op.flow_id,
                   {obs::argU64("queue_wait_ns", queue_wait),
                    obs::argU64("gate_wait_ns", gate_wait),
                    obs::argU64("execute_ns", exec_ns),
                    obs::argU64("latency_ns", latency_ns)});
    retireOpLocked(op, now, tid);
    done_cv_.notify_all();
    work_cv_.notify_all();
}

void
StreamService::retireOpLocked(StreamOp &op, uint64_t now, int tid)
{
    op.done = true;
    // A retired record completes its generation, even when cancelled,
    // so event waiters (and queued WaitEvent ops) cannot hang.
    if (op.kind == StreamOp::Kind::EventRecord && op.event) {
        op.event->complete_gen =
            std::max(op.event->complete_gen, op.event_gen);
        op.event->complete_ns = now;
    }
    // Dependency edges: a retired record publishes its edge; a retired
    // wait consumes the one it captured at enqueue (the record that
    // owns it publishes on its own retirement, so the pair stays
    // matched through cancellation too).
    obs::Tracer &tr = obs::Tracer::instance();
    if (!op.dep_flow || !tr.enabled())
        return;
    if (op.kind == StreamOp::Kind::EventRecord)
        tr.flowBegin(obs::kHostPid, tid, "stream.dep", "stream.dep",
                     tr.nowUs(), op.dep_flow);
    else
        tr.flowEnd(obs::kHostPid, tid, "stream.dep", "stream.dep",
                   tr.nowUs(), op.dep_flow);
}

void
StreamService::cancelStreamLocked(CUstream_st *s, CUresult r)
{
    obs::Tracer &tr = obs::Tracer::instance();
    const uint64_t now = nowNs();
    for (auto &op : s->q) {
        op->result = r;
        // Close the op's flow so every begun flow stays paired even
        // through teardown.
        const int tid =
            kTenantTidBase + static_cast<int>(op->ctx->tenant_id);
        if (tr.enabled() && op->flow_id)
            tr.flowEnd(obs::kHostPid, tid, "stream.op", "stream.op",
                       tr.nowUs(), op->flow_id,
                       {obs::argU64("cancelled", 1),
                        obs::argU64("result", r)});
        retireOpLocked(*op, now, tid);
    }
    s->q.clear();
}

// --- Checkpoint support ---------------------------------------------------

void
StreamService::pause()
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_)
        return;
    paused_ = true;
    // In-flight ops finish on their workers (bounded by the device
    // watchdog); once no stream is running the queue state is stable.
    done_cv_.wait(lk, [&] {
        for (const CUstream_st *s : live_streams_)
            if (s->running)
                return false;
        return true;
    });
}

void
StreamService::unpause()
{
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
    work_cv_.notify_all();
}

bool
StreamService::paused() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return paused_;
}

StreamService::QueueSnapshot
StreamService::captureQueues(const CUctx_st *ctx) const
{
    std::lock_guard<std::mutex> lk(mu_);
    NVBIT_ASSERT(paused_, "queue capture requires a paused service");
    QueueSnapshot snap;
    snap.next_seq = ctx->next_seq;
    for (const auto &sp : ctx->streams)
        for (const auto &op : sp->q)
            if (!op->done)
                snap.entries.push_back({sp->id, *op});
    // Canonical order: ascending seq (restore re-derives the
    // per-stream FIFOs, which are subsequences of it).
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const QueueSnapshot::Entry &a,
                 const QueueSnapshot::Entry &b) {
                  return a.op.seq < b.op.seq;
              });
    snap.events.reserve(ctx->events.size());
    for (const auto &ep : ctx->events)
        snap.events.push_back(
            {ep->record_gen, ep->complete_gen, ep->complete_ns});
    return snap;
}

void
StreamService::restoreQueues(CUctx_st *ctx, const QueueSnapshot &snap)
{
    std::lock_guard<std::mutex> lk(mu_);
    NVBIT_ASSERT(paused_, "queue restore requires a paused service");
    for (auto &sp : ctx->streams)
        sp->q.clear();
    for (const QueueSnapshot::Entry &e : snap.entries) {
        CUstream_st *s = nullptr;
        for (auto &sp : ctx->streams)
            if (sp->id == e.stream_id) {
                s = sp.get();
                break;
            }
        NVBIT_ASSERT(s != nullptr,
                     "queue restore references missing stream %u",
                     e.stream_id);
        auto op = std::make_shared<StreamOp>(e.op);
        op->waited = false; // its submitter, if any, is not waiting on it
        s->q.push_back(std::move(op));
    }
    ctx->next_seq = snap.next_seq;
    NVBIT_ASSERT(snap.events.size() <= ctx->events.size(),
                 "queue restore references destroyed events");
    for (size_t i = 0; i < snap.events.size(); ++i) {
        CUevt_st *ev = ctx->events[i].get();
        ev->record_gen = snap.events[i].record_gen;
        ev->complete_gen = snap.events[i].complete_gen;
        ev->complete_ns = snap.events[i].complete_ns;
    }
}

// --- Synchronisation ------------------------------------------------------

CUresult
StreamService::streamSynchronize(CUstream s)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!live_streams_.count(s))
        return CUDA_ERROR_INVALID_HANDLE;
    done_cv_.wait(lk, [&] {
        return !live_streams_.count(s) || streamIdleLocked(s);
    });
    if (!live_streams_.count(s))
        return CUDA_ERROR_INVALID_HANDLE;
    if (CUresult e = s->ctx->sticky_error)
        return e;
    return std::exchange(s->deferred_error, CUDA_SUCCESS);
}

CUresult
StreamService::streamQuery(CUstream s)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!live_streams_.count(s))
        return CUDA_ERROR_INVALID_HANDLE;
    if (!streamIdleLocked(s))
        return CUDA_ERROR_NOT_READY;
    if (CUresult e = s->ctx->sticky_error)
        return e;
    return std::exchange(s->deferred_error, CUDA_SUCCESS);
}

CUresult
StreamService::streamWaitEvent(CUstream s, CUevent ev, unsigned flags)
{
    if (flags != 0)
        return CUDA_ERROR_INVALID_VALUE;
    if (!ev)
        return CUDA_ERROR_INVALID_HANDLE;
    // Live-handle validation (stream and event) happens in submit(),
    // atomically with the generation capture.
    auto op = std::make_shared<StreamOp>();
    op->kind = StreamOp::Kind::WaitEvent;
    op->event = ev;
    return submit(s, std::move(op), false);
}

CUresult
StreamService::eventRecord(CUevent ev, CUstream s)
{
    if (!ev)
        return CUDA_ERROR_INVALID_HANDLE;
    // Live-handle validation happens in submit(), atomically with the
    // record-generation bump.
    auto op = std::make_shared<StreamOp>();
    op->kind = StreamOp::Kind::EventRecord;
    op->event = ev;
    return submit(s, std::move(op), false);
}

CUresult
StreamService::eventSynchronize(CUevent ev)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!live_events_.count(ev))
        return CUDA_ERROR_INVALID_HANDLE;
    const uint64_t target = ev->record_gen;
    if (target == 0)
        return CUDA_SUCCESS; // never recorded: nothing to wait for
    done_cv_.wait(lk, [&] {
        return !live_events_.count(ev) || ev->complete_gen >= target;
    });
    return live_events_.count(ev) ? CUDA_SUCCESS
                                  : CUDA_ERROR_INVALID_HANDLE;
}

CUresult
StreamService::eventQuery(CUevent ev)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!live_events_.count(ev))
        return CUDA_ERROR_INVALID_HANDLE;
    if (ev->record_gen == 0 || ev->complete_gen >= ev->record_gen)
        return CUDA_SUCCESS;
    return CUDA_ERROR_NOT_READY;
}

CUresult
StreamService::eventElapsed(float *ms, CUevent start, CUevent end)
{
    if (!ms)
        return CUDA_ERROR_INVALID_VALUE;
    std::lock_guard<std::mutex> lk(mu_);
    if (!live_events_.count(start) || !live_events_.count(end))
        return CUDA_ERROR_INVALID_HANDLE;
    if (start->record_gen == 0 || end->record_gen == 0 ||
        start->complete_gen < start->record_gen ||
        end->complete_gen < end->record_gen)
        return CUDA_ERROR_NOT_READY;
    const double ns = static_cast<double>(end->complete_ns) -
                      static_cast<double>(start->complete_ns);
    *ms = static_cast<float>(ns / 1e6);
    return CUDA_SUCCESS;
}

bool
StreamService::registeredLocked(const CUctx_st *ctx) const
{
    for (const GpuQueue &gq : gpus_)
        for (const CUctx_st *c : gq.ctxs)
            if (c == ctx)
                return true;
    return false;
}

void
StreamService::syncContext(CUctx_st *ctx)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_)
        return;
    // Registration is re-checked before every dereference of *ctx: the
    // caller may hold a stale snapshot pointer (the device-wide
    // cuDevicePrimaryCtxReset path) that a concurrent cuCtxDestroy
    // frees, and a context leaves the scheduling lists (under mu_)
    // before it is deallocated.
    done_cv_.wait(lk, [&] {
        return !registeredLocked(ctx) || contextIdleLocked(ctx);
    });
}

void
StreamService::sampleTelemetry()
{
    struct Row {
        uint32_t tenant;
        uint64_t depth;
        uint64_t streams;
    };
    std::vector<Row> rows;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_)
            return;
        for (const GpuQueue &gq : gpus_) {
            for (const CUctx_st *ctx : gq.ctxs) {
                Row r{ctx->tenant_id, 0,
                      static_cast<uint64_t>(ctx->streams.size())};
                for (const auto &sp : ctx->streams) {
                    r.depth += sp->q.size();
                    if (sp->running)
                        ++r.depth;
                }
                rows.push_back(r);
            }
        }
    }
    if (rows.empty())
        return;
    // Publish outside mu_: the gauges are instantaneous readings, and
    // keeping the registry out of the service lock keeps the telemetry
    // path off the enqueue/dispatch critical section.
    obs::MetricsRegistry::Txn txn(obs::MetricsRegistry::instance());
    for (const Row &r : rows) {
        txn.setGauge(
            strfmt("driver.tenant%u.queue_depth", r.tenant), r.depth);
        txn.setGauge(
            strfmt("driver.tenant%u.streams", r.tenant), r.streams);
    }
}

} // namespace detail
} // namespace nvbit::cudrv
