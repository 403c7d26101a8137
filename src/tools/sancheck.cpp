#include "tools/sancheck.hpp"

#include <cstdio>

#include "common/logging.hpp"
#include "driver/api.hpp"

namespace nvbit::tools {

using namespace cudrv;

// --- SancheckTool --------------------------------------------------------

SancheckTool::SancheckTool() : SancheckTool(Options{}) {}

SancheckTool::SancheckTool(Options opts) : opts_(opts)
{
    // Request eagerly: the device may be created before runApp calls
    // nvbit_at_init (e.g. a pre-warmed driver in tests).
    obs::Sanitizer::instance().requestChecks(opts_.mask);
}

void
SancheckTool::nvbit_at_init()
{
    obs::Sanitizer::instance().requestChecks(opts_.mask);
}

void
SancheckTool::nvbit_at_term()
{
    if (opts_.print_report)
        std::fputs(obs::Sanitizer::instance().textReport().c_str(),
                   stdout);
}

uint64_t
SancheckTool::totalViolations() const
{
    return obs::Sanitizer::instance().totalViolations();
}

std::string
SancheckTool::report() const
{
    return obs::Sanitizer::instance().textReport();
}

// --- Seeded kernels ------------------------------------------------------

namespace {

/** Stores one word through the pointer param (seed OOB / UAF). */
const char *kStorePtx = R"(
.visible .entry sanst(.param .u64 p)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<3>;
    ld.param.u64 %rd1, [p];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    exit;
}
)";

/** Loads one word through `p` and stores it to `out`. */
const char *kLoadPtx = R"(
.visible .entry sanld(.param .u64 p, .param .u64 out)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [p];
    ld.param.u64 %rd2, [out];
    ld.global.u32 %r1, [%rd1];
    st.global.u32 [%rd2], %r1;
    exit;
}
)";

/** Every thread of every warp stores to shared word 0 with no barrier
 *  in between: a cross-warp write-after-write hazard. */
const char *kSharedRacePtx = R"(
.visible .entry sanrace(.param .u64 out)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<3>;
    .shared .u32 tile[16];
    mov.u32 %r1, %tid.x;
    st.shared.u32 [tile], %r1;
    bar.sync 0;
    ld.shared.u32 %r2, [tile];
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], %r2;
    exit;
}
)";

/** Lanes 16-31 of the single warp reach the barrier, lanes 0-15 skip
 *  it: divergent arrival within one warp.  The barrier still releases
 *  (the skipping lanes exit), so the launch completes. */
const char *kDivergentBarrierPtx = R"(
.visible .entry sandiv()
{
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 16;
    @%p1 bra SKIP;
    bar.sync 0;
SKIP:
    exit;
}
)";

/** Warp 0 parks at one bar.sync, warps 1-2 at another: the classic
 *  conditional-__syncthreads deadlock (fatal). */
const char *kBarrierDeadlockPtx = R"(
.visible .entry sanbdl()
{
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    setp.lt.u32 %p1, %r1, 32;
    @%p1 bra EARLY;
    bar.sync 0;
    exit;
EARLY:
    bar.sync 0;
    exit;
}
)";

/** Clean control: c[i] = a[i] + b[i] over HtoD-initialised inputs. */
const char *kVectorAddPtx = R"(
.visible .entry sanvadd(.param .u64 a, .param .u64 b, .param .u64 c,
                        .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r3, %r1, %r2, %tid.x;
    ld.param.u32 %r4, [n];
    setp.ge.u32 %p1, %r3, %r4;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [a];
    ld.param.u64 %rd2, [b];
    ld.param.u64 %rd3, [c];
    mul.wide.u32 %rd4, %r3, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.u32 %r5, [%rd5];
    add.u64 %rd6, %rd2, %rd4;
    ld.global.u32 %r6, [%rd6];
    add.u32 %r7, %r5, %r6;
    add.u64 %rd7, %rd3, %rd4;
    st.global.u32 [%rd7], %r7;
DONE:
    exit;
}
)";

/** Clean control: both warps fill the shared tile, barrier, thread 0
 *  sums every entry — cross-warp reads properly separated by bar.sync
 *  must not be flagged by racecheck. */
const char *kSharedReducePtx = R"(
.visible .entry sanred(.param .u64 out)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<3>;
    .reg .pred %p<3>;
    .shared .u32 tile[64];
    mov.u32 %r1, %tid.x;
    shl.b32 %r2, %r1, 2;
    mov.u32 %r3, tile;
    add.u32 %r4, %r3, %r2;
    st.shared.u32 [%r4], %r1;
    bar.sync 0;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra DONE;
    mov.u32 %r5, 0;
    mov.u32 %r6, 0;
    mov.u32 %r7, tile;
LOOP:
    ld.shared.u32 %r8, [%r7];
    add.u32 %r5, %r5, %r8;
    add.u32 %r7, %r7, 4;
    add.u32 %r6, %r6, 1;
    setp.lt.u32 %p2, %r6, 64;
    @%p2 bra LOOP;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], %r5;
DONE:
    exit;
}
)";

/** Clean control: warps 1-2 exit before the barrier warp 0 waits at —
 *  hardware releases it, and synccheck must stay quiet (warp 0 arrives
 *  converged with all its live lanes). */
const char *kEarlyExitPtx = R"(
.visible .entry sanee()
{
    .reg .u32 %r<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    setp.ge.u32 %p1, %r1, 32;
    @%p1 bra SKIP;
    bar.sync 0;
SKIP:
    exit;
}
)";

struct BugSpec {
    SeededBug bug;
    const char *name;
    obs::SanCheck expected;
    bool seeded;
};

constexpr BugSpec kBugSpecs[] = {
    {SeededBug::OobStore, "oob_store", obs::SanCheck::Memcheck, true},
    {SeededBug::OobLoad, "oob_load", obs::SanCheck::Memcheck, true},
    {SeededBug::UseAfterFree, "use_after_free", obs::SanCheck::Memcheck,
     true},
    {SeededBug::SharedRace, "shared_race", obs::SanCheck::Racecheck,
     true},
    {SeededBug::DivergentBarrier, "divergent_barrier",
     obs::SanCheck::Synccheck, true},
    {SeededBug::BarrierDeadlock, "barrier_deadlock",
     obs::SanCheck::Synccheck, true},
    {SeededBug::UninitRead, "uninit_read", obs::SanCheck::Initcheck,
     true},
    {SeededBug::CleanVectorAdd, "clean_vector_add",
     obs::SanCheck::Memcheck, false},
    {SeededBug::CleanSharedReduce, "clean_shared_reduce",
     obs::SanCheck::Racecheck, false},
    {SeededBug::CleanEarlyExit, "clean_early_exit",
     obs::SanCheck::Synccheck, false},
};

const BugSpec &
specOf(SeededBug b)
{
    for (const BugSpec &s : kBugSpecs)
        if (s.bug == b)
            return s;
    return kBugSpecs[0];
}

CUfunction
loadOne(const char *ptx, const char *name)
{
    CUmodule mod = nullptr;
    checkCu(cuModuleLoadData(&mod, ptx, 0), "sancheck: load");
    CUfunction fn = nullptr;
    checkCu(cuModuleGetFunction(&fn, mod, name), "sancheck: get");
    return fn;
}

} // namespace

const char *
seededBugName(SeededBug b)
{
    return specOf(b).name;
}

// --- Campaign report -----------------------------------------------------

size_t
SancheckCampaignReport::seededCount() const
{
    size_t n = 0;
    for (const SancheckExperiment &e : experiments)
        n += e.seeded;
    return n;
}

size_t
SancheckCampaignReport::detectedCount() const
{
    size_t n = 0;
    for (const SancheckExperiment &e : experiments)
        n += e.seeded && e.detected;
    return n;
}

size_t
SancheckCampaignReport::escapedCount() const
{
    size_t n = 0;
    for (const SancheckExperiment &e : experiments)
        n += e.seeded && !e.detected;
    return n;
}

size_t
SancheckCampaignReport::falsePositiveCount() const
{
    size_t n = 0;
    for (const SancheckExperiment &e : experiments)
        n += e.false_positive;
    return n;
}

double
SancheckCampaignReport::detectionRate() const
{
    size_t s = seededCount();
    return s == 0 ? 1.0 : static_cast<double>(detectedCount()) / s;
}

std::string
SancheckCampaignReport::toJson() const
{
    std::string j = "{\n";
    j += strfmt("  \"summary\": {\"seeded\": %zu, \"detected\": %zu, "
                "\"escaped\": %zu, \"false_positives\": %zu, "
                "\"detection_rate\": %.4f},\n",
                seededCount(), detectedCount(), escapedCount(),
                falsePositiveCount(), detectionRate());
    j += "  \"experiments\": [\n";
    for (size_t i = 0; i < experiments.size(); ++i) {
        const SancheckExperiment &e = experiments[i];
        j += strfmt(
            "    {\"bug\": \"%s\", \"seeded\": %s, \"expected\": "
            "\"%s\", \"detected\": %s, \"false_positive\": %s, "
            "\"violations\": {\"memcheck\": %llu, \"racecheck\": "
            "%llu, \"synccheck\": %llu, \"initcheck\": %llu}, "
            "\"status\": %d}%s\n",
            seededBugName(e.bug), e.seeded ? "true" : "false",
            sanCheckName(e.expected), e.detected ? "true" : "false",
            e.false_positive ? "true" : "false",
            static_cast<unsigned long long>(e.violations[0]),
            static_cast<unsigned long long>(e.violations[1]),
            static_cast<unsigned long long>(e.violations[2]),
            static_cast<unsigned long long>(e.violations[3]),
            static_cast<int>(e.status),
            i + 1 < experiments.size() ? "," : "");
    }
    j += "  ]\n}\n";
    return j;
}

// --- Campaign runner -----------------------------------------------------

const std::vector<SeededBug> &
SancheckCampaign::allExperiments()
{
    static const std::vector<SeededBug> all = [] {
        std::vector<SeededBug> v;
        for (const BugSpec &s : kBugSpecs)
            v.push_back(s.bug);
        return v;
    }();
    return all;
}

SancheckExperiment
SancheckCampaign::runOne(SeededBug bug) const
{
    const BugSpec &spec = specOf(bug);
    SancheckExperiment ex;
    ex.bug = bug;
    ex.expected = spec.expected;
    ex.seeded = spec.seeded;

    obs::Sanitizer::instance().reset();
    resetDriver();
    sim::GpuConfig cfg;
    cfg.num_sms = 2;
    cfg.exec_mode = cfg_.exec_mode;
    cfg.use_traces = cfg_.use_traces;
    cfg.sancheck_mask = cfg_.mask;
    setDeviceConfig(cfg);

    // Launch failures are data, not errors: keep the worst status.
    auto cu = [&ex](CUresult r) {
        if (r != CUDA_SUCCESS && ex.status == CUDA_SUCCESS)
            ex.status = r;
        return r;
    };
    checkCu(cuInit(0), "sancheck: init");
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "sancheck: ctx");

    switch (bug) {
      case SeededBug::OobStore: {
        CUfunction fn = loadOne(kStorePtx, "sanst");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 256), "sancheck: alloc");
        CUdeviceptr bad = out + (1u << 20); // allocator gap
        void *params[] = {&bad};
        cu(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr, params,
                          nullptr));
        break;
      }
      case SeededBug::OobLoad: {
        CUfunction fn = loadOne(kLoadPtx, "sanld");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 256), "sancheck: alloc");
        uint32_t zero = 0;
        checkCu(cuMemcpyHtoD(out, &zero, 4), "sancheck: h2d");
        CUdeviceptr bad = out + (1u << 20);
        void *params[] = {&bad, &out};
        cu(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr, params,
                          nullptr));
        break;
      }
      case SeededBug::UseAfterFree: {
        CUfunction fn = loadOne(kStorePtx, "sanst");
        CUdeviceptr victim = 0;
        checkCu(cuMemAlloc(&victim, 1024), "sancheck: alloc");
        checkCu(cuMemFree(victim), "sancheck: free");
        void *params[] = {&victim};
        cu(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr, params,
                          nullptr));
        break;
      }
      case SeededBug::SharedRace: {
        CUfunction fn = loadOne(kSharedRacePtx, "sanrace");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 4), "sancheck: alloc");
        void *params[] = {&out};
        cu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, nullptr, params,
                          nullptr));
        break;
      }
      case SeededBug::DivergentBarrier: {
        CUfunction fn = loadOne(kDivergentBarrierPtx, "sandiv");
        cu(cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0, nullptr, nullptr,
                          nullptr));
        break;
      }
      case SeededBug::BarrierDeadlock: {
        CUfunction fn = loadOne(kBarrierDeadlockPtx, "sanbdl");
        cu(cuLaunchKernel(fn, 1, 1, 1, 96, 1, 1, 0, nullptr, nullptr,
                          nullptr));
        break;
      }
      case SeededBug::UninitRead: {
        CUfunction fn = loadOne(kLoadPtx, "sanld");
        CUdeviceptr uninit = 0, out = 0;
        checkCu(cuMemAlloc(&uninit, 256), "sancheck: alloc");
        checkCu(cuMemAlloc(&out, 4), "sancheck: alloc");
        uint32_t zero = 0;
        checkCu(cuMemcpyHtoD(out, &zero, 4), "sancheck: h2d");
        void *params[] = {&uninit, &out};
        cu(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr, params,
                          nullptr));
        break;
      }
      case SeededBug::CleanVectorAdd: {
        CUfunction fn = loadOne(kVectorAddPtx, "sanvadd");
        const uint32_t n = 128;
        std::vector<uint32_t> host(n);
        for (uint32_t i = 0; i < n; ++i)
            host[i] = i;
        CUdeviceptr a = 0, b = 0, c = 0;
        checkCu(cuMemAlloc(&a, n * 4), "sancheck: alloc");
        checkCu(cuMemAlloc(&b, n * 4), "sancheck: alloc");
        checkCu(cuMemAlloc(&c, n * 4), "sancheck: alloc");
        checkCu(cuMemcpyHtoD(a, host.data(), n * 4), "sancheck: h2d");
        checkCu(cuMemcpyHtoD(b, host.data(), n * 4), "sancheck: h2d");
        void *params[] = {&a, &b, &c, const_cast<uint32_t *>(&n)};
        cu(cuLaunchKernel(fn, 2, 1, 1, 64, 1, 1, 0, nullptr, params,
                          nullptr));
        cu(cuMemcpyDtoH(host.data(), c, n * 4));
        break;
      }
      case SeededBug::CleanSharedReduce: {
        CUfunction fn = loadOne(kSharedReducePtx, "sanred");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 4), "sancheck: alloc");
        void *params[] = {&out};
        cu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, nullptr, params,
                          nullptr));
        uint32_t sum = 0;
        cu(cuMemcpyDtoH(&sum, out, 4));
        break;
      }
      case SeededBug::CleanEarlyExit: {
        CUfunction fn = loadOne(kEarlyExitPtx, "sanee");
        cu(cuLaunchKernel(fn, 1, 1, 1, 96, 1, 1, 0, nullptr, nullptr,
                          nullptr));
        break;
      }
    }

    const obs::Sanitizer &san = obs::Sanitizer::instance();
    uint64_t total = 0;
    for (size_t i = 0; i < obs::kNumSanChecks; ++i) {
        ex.violations[i] =
            san.violationCount(static_cast<obs::SanCheck>(i));
        total += ex.violations[i];
    }
    const uint64_t expected_count =
        ex.violations[static_cast<size_t>(ex.expected)];
    ex.detected = ex.seeded && expected_count > 0;
    ex.false_positive =
        ex.seeded ? (total - expected_count) > 0 : total > 0;

    resetDriver();
    return ex;
}

SancheckCampaignReport
SancheckCampaign::run() const
{
    SancheckCampaignReport rep;
    for (SeededBug b : allExperiments()) {
        const BugSpec &spec = specOf(b);
        // A seeded class whose check is disabled cannot be judged —
        // skip it rather than report a bogus escape.
        if (spec.seeded &&
            (cfg_.mask & (1u << static_cast<uint32_t>(spec.expected))) ==
                0)
            continue;
        rep.experiments.push_back(runOne(b));
    }
    obs::Sanitizer::instance().reset();
    return rep;
}

} // namespace nvbit::tools
