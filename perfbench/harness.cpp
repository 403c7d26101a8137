/**
 * @file
 * perfbench_harness: runs one benchmark workload through the public
 * driver and NVBit APIs, in the default engine configuration, for a
 * fixed time, and prints one JSON report line (run.py wraps it).
 *
 *   perfbench_harness --workload suite-bare|suite-instrumented|tenants
 *                     --seed N --seconds S --trace 0|1 [--trace-out F]
 *
 * A run repeats *passes* of its workload until S seconds have gone.
 * With --trace 0 it reports the end-to-end metrics (medians over
 * passes).  With --trace 1 it alternates untraced and traced passes:
 * traced passes record spans around every driver call (spans.hpp),
 * from which it derives per-layer times, and the difference of the two
 * kinds' median wall times is the tracing overhead.
 *
 * Every pass is checked: instrumented tool counts must equal the
 * simulator's oracle counters from a bare run of the same app,
 * simulated counts must repeat exactly across passes (traced or not),
 * tenant vecadd results are read back, and every driver call must
 * succeed.  Each failure counts as a failed operation.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/timer.hpp"
#include "core/nvbit.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "tools/instr_count.hpp"
#include "tools/mem_divergence.hpp"
#include "workloads/workloads.hpp"

extern char **environ;

namespace {

using namespace nvbit;
using namespace nvbit::cudrv;
using perfbench::Layer;
using perfbench::Span;
using perfbench::SpanRecorder;
using workloads::ProblemSize;

// --- Small helpers ---------------------------------------------------------

/** splitmix64: the seed fully determines every generated input. */
struct Rng {
    uint64_t s;
    uint64_t
    next()
    {
        uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (@p p in (0, 1]) of sorted samples. */
double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

double
msOf(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Ordered (name, value, unit) metrics; the report's `metrics`. */
struct Metric {
    std::string name;
    double value;
    const char *unit;
};
using Metrics = std::vector<Metric>;

/** Failed operations: a count plus the first few reasons. */
struct Failures {
    uint64_t count = 0;
    std::vector<std::string> first;
    void
    note(std::string why)
    {
        ++count;
        if (first.size() < 10)
            first.push_back(std::move(why));
    }
};

/** Engine defaults as resolved by the device (fingerprint). */
struct EngineInfo {
    bool known = false;
    bool parallel = false;
    bool predecode = false;
    bool traces = false;
} g_engine;

void
noteEngine()
{
    if (g_engine.known)
        return;
    const sim::GpuConfig &c = device().config();
    g_engine.known = true;
    g_engine.parallel = c.exec_mode == sim::ExecMode::Parallel;
    g_engine.predecode = c.use_predecode;
    g_engine.traces = c.use_traces;
}

/** Exact simulated counts that must repeat across passes. */
struct Counts {
    uint64_t thread_instrs = 0, warp_instrs = 0, cycles = 0, ctas = 0;
    uint64_t gmem_warp_instrs = 0, unique_sectors = 0;
    uint64_t tool_a = 0, tool_b = 0; ///< the tool's own two counters

    static Counts
    of(const sim::LaunchStats &st)
    {
        Counts c;
        c.thread_instrs = st.thread_instrs;
        c.warp_instrs = st.warp_instrs;
        c.cycles = st.cycles;
        c.ctas = st.ctas;
        c.gmem_warp_instrs = st.global_mem_warp_instrs;
        c.unique_sectors = st.unique_sectors_sum;
        return c;
    }
    bool operator==(const Counts &) const = default;
};

/** Per-pass totals of simulated work (per-layer `sim.*`). */
struct SimTotals {
    uint64_t warp_instrs = 0, thread_instrs = 0, cycles = 0, ctas = 0;
    uint64_t dc_hits = 0, dc_misses = 0;

    void
    add(const sim::LaunchStats &st)
    {
        warp_instrs += st.warp_instrs;
        thread_instrs += st.thread_instrs;
        cycles += st.cycles;
        ctas += st.ctas;
        dc_hits += st.decode_cache_hits;
        dc_misses += st.decode_cache_misses;
    }
};

/** Driver-service per-tenant metrics, summed over tenants. */
struct ServiceTotals {
    uint64_t queue_wait_ns = 0, gate_wait_ns = 0, execute_ns = 0;
    uint64_t ops = 0;

    static ServiceTotals
    read()
    {
        const obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
        ServiceTotals t;
        for (unsigned i = 0; i < 8; ++i) {
            std::string p = "driver.tenant" + std::to_string(i) + ".";
            t.queue_wait_ns += mr.value(p + "queue_wait_ns");
            t.gate_wait_ns += mr.value(p + "gate_wait_ns");
            t.execute_ns += mr.value(p + "execute_ns");
            t.ops += mr.value(p + "ops_completed");
        }
        return t;
    }
    ServiceTotals
    since(const ServiceTotals &b) const
    {
        return {queue_wait_ns - b.queue_wait_ns,
                gate_wait_ns - b.gate_wait_ns, execute_ns - b.execute_ns,
                ops - b.ops};
    }
};

// --- One pass of any workload ------------------------------------------------

struct PassResult {
    bool traced = false;
    double wall_s = 0.0;
    double setup_s = 0.0;
    uint64_t launches = 0;
    uint64_t queue_rejects = 0;
    std::vector<double> launch_us;
    std::vector<Span> spans;
    SimTotals sim;
    JitStats jit;        ///< summed over the pass's app runs
    ServiceTotals svc;   ///< delta over the pass
    bool sim_exec_from_service = false; ///< tenants: no launch spans
};

// --- Suites: app runs under an injected, observed tool -----------------------

enum class ToolKind { None, Icount, IcountBB, Mdiv };

struct AppSpec {
    const char *app; ///< static; also the app run's root span name
    ToolKind tool;
    ProblemSize size;
};

/** Everything measured in one app run (one runApp call). */
struct AppRun {
    const AppSpec *spec = nullptr;
    uint64_t t_start = 0, t_first_launch = 0, t_end = 0;
    uint64_t launch_t0 = 0;
    std::vector<double> launch_us;
    Counts counts;
    sim::LaunchStats stats;
    JitStats jit;
    std::vector<std::string> errors;

    // Traced runs only.
    std::unique_ptr<SpanRecorder> rec;
    struct OpenCall {
        uint64_t after_entry_ns; ///< entry half of the tool returned
        uint64_t gen_base_ns;    ///< codegen + swap ns at that moment
    };
    std::vector<OpenCall> open_calls;
    bool ctx_create_open = false;
    uint64_t ctx_init_from = 0;
};

/** The app run the injected tool reports into. */
AppRun *g_run = nullptr;

uint64_t
inspectNs(const JitStats &j)
{
    return j.retrieve_ns + j.disassemble_ns + j.lift_ns;
}

uint64_t
genNs(const JitStats &j)
{
    return j.codegen_ns + j.swap_ns;
}

uint64_t
transferBytes(CallbackId cbid, void *params)
{
    switch (cbid) {
      case CallbackId::cuMemcpyHtoD:
      case CallbackId::cuMemcpyDtoH:
      case CallbackId::cuMemcpyDtoD:
        return static_cast<cuMemcpy_params *>(params)->bytes;
      case CallbackId::cuMemcpyHtoDAsync:
      case CallbackId::cuMemcpyDtoHAsync:
        return static_cast<cuMemcpyAsync_params *>(params)->bytes;
      default:
        return 0;
    }
}

/**
 * Run one half (entry or exit) of the wrapped tool's driver callback
 * inside a `tool.callback` span that wraps only the forwarded call, so
 * its self time is the tool's own.  NVBit inspection work the callback
 * triggers (retrieve/disassemble/lift, timed by the core itself)
 * becomes a `core.inspect` child.  @return the time the half ended.
 */
template <class Fwd>
uint64_t
tracedToolHalf(AppRun &r, Fwd &&forward)
{
    const JitStats &js = nvbit_get_jit_stats();
    uint64_t insp0 = inspectNs(js);
    Span &span = r.rec->at(r.rec->begin("tool.callback", Layer::Tools, 0));
    uint64_t a = span.start_ns = nowNs();
    forward();
    uint64_t b = nowNs();
    if (uint64_t d = inspectNs(js) - insp0)
        r.rec->leaf("core.inspect", Layer::Core, a, a + std::min(d, b - a));
    r.rec->end(b);
    return b;
}

/**
 * Bench-side subclass of a tool: sees the entry and exit of every
 * driver call and forwards to the tool's own override.  Untraced, it
 * only timestamps launches (set-up end, launch latency) and checks
 * every call's status; traced, it records the call's span tree:
 * driver call -> tool callback halves, core JIT, simulated execution.
 */
template <class Tool>
class Observed final : public Tool
{
  public:
    using Tool::Tool;

    void
    nvbit_at_cuda_driver_call(CUcontext ctx, bool is_exit, CallbackId cbid,
                              const char *name, void *params,
                              CUresult *status) override
    {
        AppRun &r = *g_run;
        auto forward = [&] {
            Tool::nvbit_at_cuda_driver_call(ctx, is_exit, cbid, name,
                                            params, status);
        };
        const bool launch = cbid == CallbackId::cuLaunchKernel;
        if (!is_exit && launch) {
            r.launch_t0 = nowNs();
            if (!r.t_first_launch)
                r.t_first_launch = r.launch_t0;
        }
        if (!r.rec) {
            forward();
        } else if (!is_exit) {
            size_t s = r.rec->begin(name, Layer::Driver,
                                    launch ? r.launch_t0 : nowNs());
            r.rec->at(s).bytes = transferBytes(cbid, params);
            uint64_t b = tracedToolHalf(r, forward);
            r.open_calls.push_back({b, genNs(nvbit_get_jit_stats())});
        } else {
            tracedExit(r, cbid, status, forward);
        }
        if (is_exit) {
            if (*status != CUDA_SUCCESS)
                r.errors.push_back(std::string(name) + " returned " +
                                   resultName(*status));
            if (launch)
                r.launch_us.push_back(
                    static_cast<double>(nowNs() - r.launch_t0) / 1e3);
        }
    }

    /** cuCtxCreate's span stays open until here: the core loads the
     *  tool's device functions after the exit callback, then calls
     *  this. */
    void
    nvbit_at_ctx_init(CUcontext ctx) override
    {
        AppRun &r = *g_run;
        if (!r.rec || !r.ctx_create_open) {
            Tool::nvbit_at_ctx_init(ctx);
            return;
        }
        r.rec->leaf("core.ctx_init", Layer::Core, r.ctx_init_from,
                    nowNs());
        tracedToolHalf(r, [&] { Tool::nvbit_at_ctx_init(ctx); });
        r.rec->end(nowNs());
        r.ctx_create_open = false;
    }

  private:
    template <class Fwd>
    static void
    tracedExit(AppRun &r, CallbackId cbid, CUresult *status, Fwd &forward)
    {
        AppRun::OpenCall c = r.open_calls.back();
        r.open_calls.pop_back();
        uint64_t t = nowNs();
        uint64_t sim_from = c.after_entry_ns;
        if (uint64_t g = genNs(nvbit_get_jit_stats()) - c.gen_base_ns) {
            sim_from = std::min(c.after_entry_ns + g, t);
            r.rec->leaf("core.codegen", Layer::Core, c.after_entry_ns,
                        sim_from);
        }
        if (cbid == CallbackId::cuLaunchKernel)
            r.rec->leaf("sim.exec", Layer::Sim, sim_from, t);
        uint64_t end = tracedToolHalf(r, forward);
        if (cbid == CallbackId::cuCtxCreate && *status == CUDA_SUCCESS) {
            r.ctx_create_open = true;
            r.ctx_init_from = end;
        } else {
            r.rec->end(end);
        }
    }
};

std::unique_ptr<workloads::Workload>
makeWorkload(const std::string &name)
{
    for (const auto &n : workloads::mlSuiteNames())
        if (n == name)
            return workloads::makeMlWorkload(name);
    return workloads::makeSpecWorkload(name);
}

/** Read the tool's own counters (before runApp tears the driver down). */
template <class Tool>
void
readToolCounts(Tool &t, Counts &c)
{
    if constexpr (std::is_base_of_v<tools::InstrCountTool, Tool>) {
        c.tool_a = t.threadInstrs();
        c.tool_b = t.warpInstrs();
    } else if constexpr (std::is_base_of_v<tools::MemDivergenceTool,
                                           Tool>) {
        c.tool_a = t.memInstrs();
        c.tool_b = t.uniqueSectors();
    }
}

template <class Tool, class... Args>
void
runObserved(AppRun &r, Args... args)
{
    Observed<Tool> tool(args...);
    g_run = &r;
    SpanRecorder *rec = r.rec.get();
    r.t_start = nowNs();
    if (rec) {
        rec->begin(r.spec->app, Layer::App, r.t_start);
        rec->begin("nvbit.init", Layer::Core, r.t_start);
    }
    runApp(tool, [&] {
        if (rec) {
            uint64_t t = nowNs();
            rec->end(t);
            rec->begin("app.body", Layer::Workloads, t);
        }
        checkCu(cuInit(0), "cuInit");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "cuCtxCreate");
        noteEngine();
        makeWorkload(r.spec->app)->run(r.spec->size);
        if (rec)
            rec->end(nowNs());
        r.stats = deviceTotalStats();
        r.counts = Counts::of(r.stats);
        readToolCounts(tool, r.counts);
        r.jit = nvbit_get_jit_stats();
        if (rec)
            rec->begin("teardown", Layer::Driver, nowNs());
    });
    r.t_end = nowNs();
    if (rec) {
        rec->end(r.t_end); // teardown
        rec->end(r.t_end); // app root
    }
    g_run = nullptr;
    if (!r.open_calls.empty() || (rec && rec->depth() != 0))
        r.errors.push_back("unbalanced driver-call callbacks");
}

void
runAppSpec(AppRun &r, ToolKind kind)
{
    using IC = tools::InstrCountTool;
    switch (kind) {
      case ToolKind::None: runObserved<NvbitTool>(r); break;
      case ToolKind::Icount:
        runObserved<IC>(r, IC::Mode::PerInstruction);
        break;
      case ToolKind::IcountBB:
        runObserved<IC>(r, IC::Mode::PerBasicBlock);
        break;
      case ToolKind::Mdiv:
        runObserved<tools::MemDivergenceTool>(r);
        break;
    }
}

/** Oracle check of an instrumented app's tool counts. */
std::string
oracleMismatch(ToolKind kind, const Counts &tool, const Counts &bare)
{
    auto cmp = [](const char *what, uint64_t got, uint64_t want) {
        return got == want ? std::string()
                           : std::string(what) + " " + std::to_string(got) +
                                 " != oracle " + std::to_string(want);
    };
    std::string m;
    switch (kind) {
      case ToolKind::None: break;
      case ToolKind::Icount:
        m = cmp("icount thread instrs", tool.tool_a, bare.thread_instrs);
        if (m.empty())
            m = cmp("icount warp instrs", tool.tool_b, bare.warp_instrs);
        break;
      case ToolKind::IcountBB:
        // Block mode attributes a block's guarded instructions to every
        // thread entering it, so only warp counts are exact.
        m = cmp("icount-bb warp instrs", tool.tool_b, bare.warp_instrs);
        break;
      case ToolKind::Mdiv:
        m = cmp("mdiv accesses", tool.tool_a, bare.gmem_warp_instrs);
        if (m.empty())
            m = cmp("mdiv sectors", tool.tool_b, bare.unique_sectors);
        break;
    }
    return m;
}

class SuiteBench
{
  public:
    SuiteBench(std::vector<AppSpec> apps, uint64_t seed)
        : apps_(std::move(apps)), seed_(seed)
    {}

    /**
     * Reference pass, untimed: each app once with no tool.  Its
     * counts are the oracle for the instrumented apps and the
     * reference every later bare pass must repeat.  It also warms
     * the process (page cache, lazily built tables).
     */
    void
    reference(Failures &fail, uint64_t &attempted)
    {
        for (const AppSpec &a : apps_) {
            AppSpec bare{a.app, ToolKind::None, a.size};
            AppRun r;
            r.spec = &bare;
            runAppSpec(r, ToolKind::None);
            ++attempted;
            for (const std::string &e : r.errors)
                fail.note(std::string(a.app) + " (oracle run): " + e);
            oracle_[a.app] = r.counts;
            if (a.tool == ToolKind::None)
                ref_[&a] = r.counts;
        }
    }

    PassResult
    pass(uint32_t index, bool traced, uint32_t &next_run,
         Failures &fail, uint64_t &attempted)
    {
        // The seed (and pass index) fix the app order.
        std::vector<const AppSpec *> order;
        for (const AppSpec &a : apps_)
            order.push_back(&a);
        Rng rng{seed_ * 0x100000001B3ull + index};
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.next() % i]);

        PassResult p;
        p.traced = traced;
        ServiceTotals svc0 = ServiceTotals::read();
        uint64_t t0 = nowNs();
        for (const AppSpec *a : order) {
            AppRun r;
            r.spec = a;
            if (traced)
                r.rec = std::make_unique<SpanRecorder>(next_run++, 1);
            runAppSpec(r, a->tool);
            ++attempted;
            check(r, fail);
            p.setup_s += r.t_first_launch
                             ? static_cast<double>(r.t_first_launch -
                                                   r.t_start) / 1e9
                             : 0.0;
            p.launches += r.launch_us.size();
            p.launch_us.insert(p.launch_us.end(), r.launch_us.begin(),
                               r.launch_us.end());
            p.sim.add(r.stats);
            addJit(p.jit, r.jit);
            if (r.rec) {
                auto &s = r.rec->spans();
                p.spans.insert(p.spans.end(), s.begin(), s.end());
            }
        }
        p.wall_s = static_cast<double>(nowNs() - t0) / 1e9;
        p.svc = ServiceTotals::read().since(svc0);
        return p;
    }

  private:
    static void
    addJit(JitStats &sum, const JitStats &j)
    {
        sum.retrieve_ns += j.retrieve_ns;
        sum.disassemble_ns += j.disassemble_ns;
        sum.lift_ns += j.lift_ns;
        sum.user_callback_ns += j.user_callback_ns;
        sum.codegen_ns += j.codegen_ns;
        sum.swap_ns += j.swap_ns;
        sum.trampolines_generated += j.trampolines_generated;
        sum.functions_instrumented += j.functions_instrumented;
    }

    void
    check(const AppRun &r, Failures &fail)
    {
        const std::string app = r.spec->app;
        std::string why;
        if (!r.errors.empty())
            why = r.errors.front();
        if (why.empty() && !r.t_first_launch)
            why = "no kernel launched";
        if (why.empty())
            why = oracleMismatch(r.spec->tool, r.counts, oracle_.at(app));
        if (why.empty()) {
            auto [it, fresh] = ref_.emplace(r.spec, r.counts);
            if (!fresh && !(it->second == r.counts))
                why = "simulated counts differ from the first run";
        }
        if (!why.empty())
            fail.note(app + ": " + why);
    }

    std::vector<AppSpec> apps_;
    uint64_t seed_;
    std::map<std::string, Counts> oracle_;
    std::map<const AppSpec *, Counts> ref_;
};

// --- Tenants: closed-loop clients on the asynchronous driver service --------

constexpr unsigned kClients = 2;
constexpr uint32_t kLaunchesPerClient = 10000;
constexpr uint32_t kMaxElems = 4096;
constexpr uint32_t kBlock = 128;
/** Every kVerifyEvery-th launch (and the last) is read back. */
constexpr uint32_t kVerifyEvery = 100;

// The same kernel as bench/mt_loadgen.hpp, copied so that everything
// that defines this benchmark lives in this directory.
const char *kVecAddPtx = R"(
.visible .entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C,
                       .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r4, %r1, %r2, %tid.x;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [B];
    ld.param.u64 %rd3, [C];
    mul.wide.u32 %rd4, %r4, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd6, %rd2, %rd4;
    ld.global.f32 %f2, [%rd6];
    add.f32 %f3, %f1, %f2;
    add.u64 %rd7, %rd3, %rd4;
    st.global.f32 [%rd7], %f3;
DONE:
    exit;
}
)";

struct ClientResult {
    uint64_t t_start = 0, t_first_launch = 0;
    uint64_t launches = 0, rejects = 0;
    std::vector<double> launch_us;
    Failures fail;
    std::unique_ptr<SpanRecorder> rec;
};

/** Time one driver call as a span when tracing; @return its result. */
template <class Call>
CUresult
timed(SpanRecorder *rec, const char *name, Call &&call, uint64_t bytes = 0)
{
    if (!rec)
        return call();
    size_t s = rec->begin(name, Layer::Driver, nowNs());
    rec->at(s).bytes = bytes;
    CUresult r = call();
    rec->end(nowNs());
    return r;
}

/** One tenant: context, explicit stream, closed launch+sync loop. */
void
clientBody(const std::vector<uint32_t> &sizes, ClientResult *out)
{
    SpanRecorder *rec = out->rec.get();
    Failures &fail = out->fail;
    auto ok = [&](CUresult r, const char *what) {
        if (r == CUDA_SUCCESS)
            return true;
        fail.note(std::string(what) + " returned " + resultName(r));
        return false;
    };
    out->t_start = nowNs();
    if (rec)
        rec->begin("client", Layer::Workloads, out->t_start);

    CUcontext ctx = nullptr;
    CUstream stream = nullptr;
    CUmodule mod = nullptr;
    CUfunction fn = nullptr;
    CUdeviceptr da = 0, db = 0, dc = 0;
    const size_t bytes = kMaxElems * sizeof(float);
    std::vector<float> a(kMaxElems), b(kMaxElems), c(kMaxElems);
    for (uint32_t i = 0; i < kMaxElems; ++i) {
        a[i] = static_cast<float>(i) * 0.25f;
        b[i] = static_cast<float>(kMaxElems - i) * 0.5f;
    }
    bool ready =
        ok(timed(rec, "cuCtxCreate", [&] { return cuCtxCreate(&ctx, 0, 0); }),
           "cuCtxCreate") &&
        ok(timed(rec, "cuStreamCreate",
                 [&] { return cuStreamCreate(&stream, 0); }),
           "cuStreamCreate") &&
        ok(timed(rec, "cuModuleLoadData",
                 [&] { return cuModuleLoadData(&mod, kVecAddPtx, 0); }),
           "cuModuleLoadData") &&
        ok(timed(rec, "cuModuleGetFunction",
                 [&] { return cuModuleGetFunction(&fn, mod, "vecadd"); }),
           "cuModuleGetFunction") &&
        ok(timed(rec, "cuMemAlloc", [&] { return cuMemAlloc(&da, bytes); }),
           "cuMemAlloc") &&
        ok(timed(rec, "cuMemAlloc", [&] { return cuMemAlloc(&db, bytes); }),
           "cuMemAlloc") &&
        ok(timed(rec, "cuMemAlloc", [&] { return cuMemAlloc(&dc, bytes); }),
           "cuMemAlloc") &&
        ok(timed(rec, "cuMemcpyHtoD",
                 [&] { return cuMemcpyHtoD(da, a.data(), bytes); }, bytes),
           "cuMemcpyHtoD") &&
        ok(timed(rec, "cuMemcpyHtoD",
                 [&] { return cuMemcpyHtoD(db, b.data(), bytes); }, bytes),
           "cuMemcpyHtoD");

    out->launch_us.reserve(sizes.size());
    for (uint32_t i = 0; ready && i < sizes.size(); ++i) {
        uint32_t n = sizes[i];
        const bool verify = (i + 1) % kVerifyEvery == 0 ||
                            i + 1 == sizes.size();
        if (verify &&
            !ok(cuMemsetD8(dc, 0, bytes), "cuMemsetD8"))
            break;
        void *params[] = {&da, &db, &dc, &n};
        uint64_t t0 = nowNs();
        if (!out->t_first_launch)
            out->t_first_launch = t0;
        CUresult r;
        // Backpressure: a full queue means "drain and retry", which is
        // counted as a reject, not as a failure.
        while ((r = timed(rec, "cuLaunchKernel", [&] {
                    return cuLaunchKernel(fn, (n + kBlock - 1) / kBlock, 1,
                                          1, kBlock, 1, 1, 0, stream,
                                          params, nullptr);
                })) == CUDA_ERROR_LAUNCH_OUT_OF_RESOURCES) {
            ++out->rejects;
            if (!ok(cuStreamSynchronize(stream), "drain"))
                break;
        }
        bool done = ok(r, "cuLaunchKernel") &&
                    ok(timed(rec, "cuStreamSynchronize",
                             [&] { return cuStreamSynchronize(stream); }),
                       "cuStreamSynchronize");
        out->launch_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        ++out->launches;
        if (!done)
            continue;
        if (verify) {
            if (!ok(cuMemcpyDtoH(c.data(), dc, bytes), "cuMemcpyDtoH"))
                continue;
            for (uint32_t j = 0; j < kMaxElems; ++j) {
                float want = j < n ? a[j] + b[j] : 0.0f;
                if (std::memcmp(&c[j], &want, sizeof(float)) != 0) {
                    fail.note("vecadd n=" + std::to_string(n) +
                              " wrong at element " + std::to_string(j));
                    break;
                }
            }
        }
    }

    if (rec)
        rec->begin("client.teardown", Layer::Driver, nowNs());
    for (CUdeviceptr p : {da, db, dc})
        if (p)
            ok(cuMemFree(p), "cuMemFree");
    if (mod)
        ok(cuModuleUnload(mod), "cuModuleUnload");
    if (stream)
        ok(cuStreamDestroy(stream), "cuStreamDestroy");
    if (ctx)
        ok(cuCtxDestroy(ctx), "cuCtxDestroy");
    if (rec) {
        uint64_t t = nowNs();
        rec->end(t);
        rec->end(t);
    }
}

class TenantBench
{
  public:
    explicit TenantBench(uint64_t seed)
    {
        // Sizes in [128, 4096] with a geometric size class k (P(k = 0)
        // = 3/4): n is 128 for k = 0 and in (64 << k, 128 << k]
        // otherwise, so three launches in four are one CTA and the
        // rest spread over 2-32 CTAs.
        Rng rng{seed ^ 0x7E4A47ull};
        sizes_.resize(kClients);
        for (auto &v : sizes_) {
            v.resize(kLaunchesPerClient);
            for (uint32_t &n : v) {
                unsigned k = 0;
                while (k < 5 && rng.next() % 4 == 0)
                    ++k;
                n = kBlock << k;
                if (k)
                    n -= static_cast<uint32_t>(rng.next() % (n / 2));
            }
        }
    }

    PassResult
    pass(bool traced, uint32_t &next_run, Failures &fail,
         uint64_t &attempted)
    {
        PassResult p;
        p.traced = traced;
        p.sim_exec_from_service = true;
        std::unique_ptr<SpanRecorder> root;
        uint32_t run = next_run++;
        ServiceTotals svc0 = ServiceTotals::read();
        uint64_t t0 = nowNs();
        if (traced) {
            root = std::make_unique<SpanRecorder>(run, 1);
            root->begin("tenants", Layer::App, t0);
        }
        uint64_t init0 = nowNs();
        CUresult ir = timed(root.get(), "cuInit", [] { return cuInit(0); });
        uint64_t init_ns = nowNs() - init0;
        if (ir != CUDA_SUCCESS)
            fail.note(std::string("cuInit returned ") + resultName(ir));
        else
            noteEngine();

        std::vector<ClientResult> clients(kClients);
        if (ir == CUDA_SUCCESS) {
            std::vector<std::thread> threads;
            for (unsigned i = 0; i < kClients; ++i) {
                if (traced) {
                    clients[i].rec =
                        std::make_unique<SpanRecorder>(run, 2 + i);
                    clients[i].rec->setRootParent(root->at(0).id);
                }
                threads.emplace_back(clientBody, std::cref(sizes_[i]),
                                     &clients[i]);
            }
            for (auto &t : threads)
                t.join();
        }
        sim::LaunchStats st =
            ir == CUDA_SUCCESS ? deviceTotalStats() : sim::LaunchStats{};
        p.svc = ServiceTotals::read().since(svc0);
        if (root)
            root->begin("teardown", Layer::Driver, nowNs());
        resetDriver();
        uint64_t t1 = nowNs();
        if (root) {
            root->end(t1);
            root->end(t1);
        }
        p.wall_s = static_cast<double>(t1 - t0) / 1e9;
        p.setup_s = static_cast<double>(init_ns) / 1e9;
        p.sim.add(st);

        for (ClientResult &c : clients) {
            attempted += c.launches;
            fail.count += c.fail.count;
            for (std::string &w : c.fail.first)
                if (fail.first.size() < 10)
                    fail.first.push_back(std::move(w));
            if (c.t_first_launch)
                p.setup_s +=
                    static_cast<double>(c.t_first_launch - c.t_start) /
                    1e9;
            p.launches += c.launches;
            p.queue_rejects += c.rejects;
            p.launch_us.insert(p.launch_us.end(), c.launch_us.begin(),
                               c.launch_us.end());
            if (c.rec) {
                auto &s = c.rec->spans();
                p.spans.insert(p.spans.end(), s.begin(), s.end());
            }
        }
        if (root) {
            auto &s = root->spans();
            p.spans.insert(p.spans.begin(), s.begin(), s.end());
        }

        Counts now = Counts::of(st);
        if (!ref_)
            ref_ = std::make_unique<Counts>(now);
        else if (!(*ref_ == now))
            fail.note("tenants: simulated counts differ between passes");
        return p;
    }

  private:
    std::vector<std::vector<uint32_t>> sizes_;
    std::unique_ptr<Counts> ref_;
};

// --- Metrics ---------------------------------------------------------------

/** Every timing is a median over passes, so one disturbed pass (host
 *  noise) cannot move it; latency percentiles are taken per pass. */
Metrics
endToEnd(const std::vector<PassResult> &passes)
{
    std::vector<double> wall, setup, rate, p50, p99;
    for (const PassResult &p : passes) {
        wall.push_back(p.wall_s);
        setup.push_back(p.setup_s);
        rate.push_back(static_cast<double>(p.launches) / p.wall_s);
        std::vector<double> lat = p.launch_us;
        std::sort(lat.begin(), lat.end());
        p50.push_back(percentileSorted(lat, 0.50));
        p99.push_back(percentileSorted(lat, 0.99));
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"launches_per_s", median(rate), "1/s"},
        {"launch_p50_us", median(p50), "us"},
        {"launch_p99_us", median(p99), "us"},
    };
}

/** Per-layer metrics of one traced pass. */
Metrics
layerMetrics(const PassResult &p)
{
    uint64_t init = 0, modload = 0, modules = 0, launch = 0, launches = 0;
    uint64_t sync = 0, memcpy_ns = 0, memcpy_bytes = 0, alloc = 0;
    uint64_t teardown = 0, sim_exec = 0;
    auto is = [](const Span &s, const char *n) {
        return std::strcmp(s.name, n) == 0;
    };
    for (const Span &s : p.spans) {
        if (is(s, "cuInit")) {
            init += s.dur();
        } else if (is(s, "cuModuleLoadData")) {
            modload += s.dur();
            ++modules;
        } else if (is(s, "cuLaunchKernel")) {
            launch += s.dur();
            ++launches;
        } else if (is(s, "cuStreamSynchronize") ||
                   is(s, "cuCtxSynchronize") ||
                   is(s, "cuEventSynchronize")) {
            sync += s.dur();
        } else if (std::strncmp(s.name, "cuMemcpy", 8) == 0) {
            memcpy_ns += s.dur();
            memcpy_bytes += s.bytes;
        } else if (is(s, "cuMemAlloc")) {
            alloc += s.dur();
        } else if (is(s, "teardown") || is(s, "client.teardown")) {
            teardown += s.dur();
        } else if (is(s, "sim.exec")) {
            sim_exec += s.dur();
        }
    }
    if (p.sim_exec_from_service)
        sim_exec = p.svc.execute_ns;
    perfbench::SpanSummary sum = perfbench::summarize(p.spans);
    auto self = [&](Layer l) {
        return msOf(sum.self_ns[static_cast<size_t>(l)]);
    };
    auto perOpUs = [&](uint64_t ns) {
        return p.svc.ops ? static_cast<double>(ns) / 1e3 /
                               static_cast<double>(p.svc.ops)
                         : 0.0;
    };
    const JitStats &j = p.jit;
    const double lookups =
        static_cast<double>(p.sim.dc_hits + p.sim.dc_misses);
    return {
        {"driver.init_ms", msOf(init), "ms"},
        {"driver.module_load_ms", msOf(modload), "ms"},
        {"driver.modules", static_cast<double>(modules), "count"},
        {"driver.launches", static_cast<double>(launches), "count"},
        {"driver.launch_ms", msOf(launch), "ms"},
        {"driver.sync_ms", msOf(sync), "ms"},
        {"driver.queue_rejects", static_cast<double>(p.queue_rejects),
         "count"},
        {"driver.queue_wait_us", perOpUs(p.svc.queue_wait_ns), "us"},
        {"driver.gate_wait_us", perOpUs(p.svc.gate_wait_ns), "us"},
        {"driver.execute_us", perOpUs(p.svc.execute_ns), "us"},
        {"driver.teardown_ms", msOf(teardown), "ms"},
        {"core.jit_ms", msOf(j.totalNs() - j.user_callback_ns), "ms"},
        {"core.jit.retrieve_ms", msOf(j.retrieve_ns), "ms"},
        {"core.jit.disasm_ms", msOf(j.disassemble_ns), "ms"},
        {"core.jit.lift_ms", msOf(j.lift_ns), "ms"},
        {"core.jit.codegen_ms", msOf(j.codegen_ns), "ms"},
        {"core.jit.swap_ms", msOf(j.swap_ns), "ms"},
        {"core.trampolines", static_cast<double>(j.trampolines_generated),
         "count"},
        {"core.functions", static_cast<double>(j.functions_instrumented),
         "count"},
        {"tools.callback_ms", self(Layer::Tools), "ms"},
        {"sim.exec_ms", msOf(sim_exec), "ms"},
        {"sim.ns_per_warp_instr",
         p.sim.warp_instrs ? static_cast<double>(sim_exec) /
                                 static_cast<double>(p.sim.warp_instrs)
                           : 0.0,
         "ns/instr"},
        {"sim.warp_instrs", static_cast<double>(p.sim.warp_instrs),
         "count"},
        {"sim.thread_instrs", static_cast<double>(p.sim.thread_instrs),
         "count"},
        {"sim.cycles", static_cast<double>(p.sim.cycles), "count"},
        {"sim.ctas", static_cast<double>(p.sim.ctas), "count"},
        {"sim.decode_cache_hit_ratio",
         lookups ? static_cast<double>(p.sim.dc_hits) / lookups : 0.0,
         "ratio"},
        {"sim.decode_cache_lookups", lookups, "count"},
        {"mem.memcpy_ms", msOf(memcpy_ns), "ms"},
        {"mem.memcpy_bytes", static_cast<double>(memcpy_bytes), "bytes"},
        {"mem.alloc_ms", msOf(alloc), "ms"},
        {"workloads.host_ms", self(Layer::Workloads), "ms"},
        {"self.driver_ms", self(Layer::Driver), "ms"},
        {"self.core_ms", self(Layer::Core), "ms"},
        {"self.sim_ms", self(Layer::Sim), "ms"},
        {"trace.coverage",
         sum.body_ns ? static_cast<double>(sum.body_covered_ns) /
                           static_cast<double>(sum.body_ns)
                     : 0.0,
         "ratio"},
        {"trace.spans", static_cast<double>(p.spans.size()), "count"},
    };
}

/** Median of each per-layer metric over the traced passes. */
Metrics
perLayer(const std::vector<PassResult> &passes)
{
    std::vector<Metrics> each;
    std::vector<double> traced_wall, bare_wall;
    for (const PassResult &p : passes) {
        (p.traced ? traced_wall : bare_wall).push_back(p.wall_s);
        if (p.traced)
            each.push_back(layerMetrics(p));
    }
    Metrics out = each.front();
    for (size_t m = 0; m < out.size(); ++m) {
        std::vector<double> v;
        for (const Metrics &e : each)
            v.push_back(e[m].value);
        out[m].value = median(v);
    }
    out.push_back({"trace.wall_s", median(traced_wall), "s"});
    out.push_back({"trace.untraced_wall_s", median(bare_wall), "s"});
    out.push_back({"trace.overhead_s",
                   median(traced_wall) - median(bare_wall), "s"});
    return out;
}

// --- Program-level guards and output ----------------------------------------

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return false;
#endif
}

bool
optimized()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += (c == '\n' ? ' ' : c);
    }
    return o + "\"";
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload "
                 "suite-bare|suite-instrumented|tenants --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            trace = std::atoi(v.c_str());
        else if (k == "--trace-out")
            trace_out = v;
        else
            return usage();
    }
    if (argc % 2 == 0 || seconds < 0 || (trace != 0 && trace != 1))
        return usage();

    // Refuse to measure a different program than users run.
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "NVBIT_SIM_", 10) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark measures the default engine "
                         "configuration\n",
                         *e);
            return 3;
        }
    }
    if (!optimized() || sanitized()) {
        std::fprintf(stderr, "perfbench: refusing to run an unoptimised "
                             "or sanitizer build\n");
        return 3;
    }

    const bool suite = workload == "suite-bare" ||
                       workload == "suite-instrumented";
    if (!suite && workload != "tenants")
        return usage();

    std::vector<AppSpec> apps;
    if (workload == "suite-bare") {
        for (const std::string &n : workloads::specSuiteNames())
            apps.push_back({n.c_str(), ToolKind::None, ProblemSize::Large});
    } else if (workload == "suite-instrumented") {
        apps = {{"md", ToolKind::Icount, ProblemSize::Medium},
                {"cg", ToolKind::IcountBB, ProblemSize::Medium},
                {"swim", ToolKind::Mdiv, ProblemSize::Medium},
                {"alexnet", ToolKind::Mdiv, ProblemSize::Medium},
                {"ilbdc", ToolKind::Icount, ProblemSize::Test}};
    }

    Failures fail;
    uint64_t attempted = 0;
    uint32_t next_run = 1;
    std::vector<PassResult> passes;
    std::unique_ptr<SuiteBench> sb;
    std::unique_ptr<TenantBench> tb;
    if (suite) {
        sb = std::make_unique<SuiteBench>(apps, seed);
        sb->reference(fail, attempted);
    } else {
        tb = std::make_unique<TenantBench>(seed);
        tb->pass(false, next_run, fail, attempted); // warm-up, untimed
    }

    // Untraced runs: passes until the time is up.  Traced runs:
    // (untraced, traced) pairs, so both kinds see the same conditions.
    const uint64_t deadline =
        nowNs() + static_cast<uint64_t>(seconds * 1e9);
    for (uint32_t i = 0;; ++i) {
        const bool traced = trace == 1 && i % 2 == 1;
        passes.push_back(sb ? sb->pass(i, traced, next_run, fail, attempted)
                            : tb->pass(traced, next_run, fail, attempted));
        std::fprintf(stderr, "pass %u%s: %.3f s\n", i,
                     traced ? " (traced)" : "", passes.back().wall_s);
        const bool pair_open = trace == 1 && !traced;
        if (!pair_open && nowNs() >= deadline)
            break;
    }

    Metrics metrics;
    std::vector<PassResult> untraced;
    for (PassResult &p : passes)
        if (!p.traced)
            untraced.push_back(p);
    if (trace == 0) {
        metrics = endToEnd(untraced);
    } else {
        metrics = perLayer(passes);
        if (!trace_out.empty()) {
            const PassResult *last = nullptr;
            for (const PassResult &p : passes)
                if (p.traced)
                    last = &p;
            if (!perfbench::writeChromeTrace(trace_out, last->spans)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             trace_out.c_str());
                return 1;
            }
        }
    }
    size_t samples = 0;
    for (const PassResult &p : untraced)
        samples += p.launch_us.size();

    for (const std::string &w : fail.first)
        std::fprintf(stderr, "FAILED: %s\n", w.c_str());

    std::string out = "{\"workload\": " + jsonStr(workload) +
                      ", \"seed\": " + std::to_string(seed) +
                      ", \"trace\": " + std::to_string(trace) +
                      ", \"correct\": " + (fail.count ? "false" : "true") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(fail.count) +
                      ", \"passes\": " + std::to_string(passes.size()) +
                      ", \"launch_samples\": " + std::to_string(samples) +
                      ", \"build\": {\"type\": " +
                      jsonStr(PERFBENCH_BUILD_TYPE) +
                      ", \"optimized\": true, \"sanitized\": false" +
                      ", \"compiler\": " + jsonStr(PERFBENCH_COMPILER) +
                      "}" +
                      ", \"engine\": {\"exec_mode\": " +
                      jsonStr(g_engine.parallel ? "parallel" : "serial") +
                      ", \"predecode\": " +
                      (g_engine.predecode ? "true" : "false") +
                      ", \"traces\": " +
                      (g_engine.traces ? "true" : "false") + "}" +
                      ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", " : "") + jsonStr(metrics[i].name) +
               ": {\"value\": " + jsonNum(metrics[i].value) +
               ", \"unit\": " + jsonStr(metrics[i].unit) + "}";
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
