/**
 * @file
 * Correctness-observability suite tests (labelled "sancheck" in ctest):
 *
 *  1. Unit coverage of the shadow state (mem/shadow_memory) and the
 *     check-list parser (obs::parseSancheckList).
 *  2. The seeded-bug detection-rate campaign: every OOB / race /
 *     divergent-barrier / uninit class is caught, clean controls stay
 *     silent, and the whole campaign report is bit-identical across
 *     all four engine configurations (tests/engine_matrix.hpp).
 *  3. Reporting semantics: allocation provenance, finding dedup, the
 *     JSON export path, fatal promotion to a SanitizerError
 *     DeviceException under NVBIT_SIM_SANCHECK_FATAL=1, and app-pc
 *     attribution of findings while a tool is attached.
 *  4. The passivity contract: checks charge no simulated cycles, and
 *     quiet runs create no sancheck.* counters.
 *  5. Environment precedence: NVBIT_SIM_SANCHECK beats the tool-side
 *     check request, including an explicit "off".
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/nvbit.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "mem/device_memory.hpp"
#include "mem/shadow_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/sanitizer.hpp"
#include "resident.hpp"
#include "sim/launch.hpp"
#include "tools/instr_count.hpp"
#include "tools/sancheck.hpp"
#include "workloads/workloads.hpp"

namespace nvbit {
namespace {

using namespace cudrv;
using obs::SanCheck;
using obs::Sanitizer;
using sim::TrapCode;
using tools::SancheckCampaign;
using tools::SancheckCampaignReport;
using tools::SeededBug;

/** Single-thread store through the pointer param (OOB / UAF seed). */
const char *kStorePtx = R"(
.visible .entry tsanst(.param .u64 p)
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<3>;
    ld.param.u64 %rd1, [p];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    exit;
}
)";

// ---------------------------------------------------------------------
// 1. Unit tests: parser + shadow memory
// ---------------------------------------------------------------------

TEST(SancheckParse, NamedListsAndAliases)
{
    bool ok = false;
    EXPECT_EQ(obs::parseSancheckList("all", &ok), obs::kSancheckAll);
    EXPECT_TRUE(ok);
    EXPECT_EQ(obs::parseSancheckList("memcheck", &ok),
              obs::kSancheckMemcheck);
    EXPECT_TRUE(ok);
    EXPECT_EQ(obs::parseSancheckList("memcheck,racecheck", &ok),
              obs::kSancheckMemcheck | obs::kSancheckRacecheck);
    EXPECT_TRUE(ok);
    EXPECT_EQ(obs::parseSancheckList("synccheck,initcheck", &ok),
              obs::kSancheckSynccheck | obs::kSancheckInitcheck);
    EXPECT_TRUE(ok);
    // Explicit empty masks parse successfully as 0.
    EXPECT_EQ(obs::parseSancheckList("off", &ok), 0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(obs::parseSancheckList("none", &ok), 0u);
    EXPECT_TRUE(ok);
    EXPECT_EQ(obs::parseSancheckList("0", &ok), 0u);
    EXPECT_TRUE(ok);
}

TEST(SancheckParse, UnknownTokensFailTheParse)
{
    bool ok = true;
    EXPECT_EQ(obs::parseSancheckList("bogus", &ok), 0u);
    EXPECT_FALSE(ok);
    ok = true;
    EXPECT_EQ(obs::parseSancheckList("memcheck,bogus", &ok), 0u);
    EXPECT_FALSE(ok);
}

TEST(ShadowMemoryTest, TracksAddressabilityAndInitialization)
{
    mem::ShadowMemory sh(4096);
    mem::DevPtr bad = 0;

    // Nothing allocated yet: everything is unaddressable.
    EXPECT_FALSE(sh.rangeAddressable(128, 16, &bad));
    EXPECT_EQ(bad, 128u);

    sh.onAlloc(256, 64);
    EXPECT_TRUE(sh.rangeAddressable(256, 64));
    EXPECT_FALSE(sh.rangeAddressable(256, 65, &bad)); // one past the end
    EXPECT_EQ(bad, 320u);
    EXPECT_FALSE(sh.rangeAddressable(255, 2, &bad)); // one before
    EXPECT_EQ(bad, 255u);

    // Fresh allocation is addressable but uninitialized.
    EXPECT_FALSE(sh.rangeInitialized(256, 4, &bad));
    EXPECT_EQ(bad, 256u);
    sh.markInitialized(256, 8);
    EXPECT_TRUE(sh.rangeInitialized(256, 8));
    EXPECT_FALSE(sh.rangeInitialized(256, 12, &bad));
    EXPECT_EQ(bad, 264u);

    // Free clears addressability but keeps provenance.
    sh.onFree(256, 64);
    EXPECT_FALSE(sh.rangeAddressable(256, 4, &bad));
    mem::ShadowMemory::AllocInfo info;
    ASSERT_TRUE(sh.nearestAlloc(260, info));
    EXPECT_EQ(info.base, 256u);
    EXPECT_EQ(info.bytes, 64u);
    EXPECT_EQ(info.seq, 1u);
    EXPECT_FALSE(info.live);
}

TEST(ShadowMemoryTest, RebuildFromLiveMarksBlocksInitialized)
{
    mem::ShadowMemory sh(4096);
    sh.onAlloc(0, 128);
    sh.markInitialized(0, 128);

    // A checkpoint restore replaces shadow state wholesale: live
    // blocks become addressable *and* initialized, all else cleared.
    std::map<mem::DevPtr, size_t> live = {{512, 64}, {1024, 32}};
    sh.rebuildFromLive(live);
    EXPECT_TRUE(sh.rangeAddressable(512, 64));
    EXPECT_TRUE(sh.rangeInitialized(512, 64));
    EXPECT_TRUE(sh.rangeAddressable(1024, 32));
    EXPECT_TRUE(sh.rangeInitialized(1024, 32));
    EXPECT_FALSE(sh.rangeAddressable(0, 4));
}

// Attaching a shadow to a default-size device writes nothing: the flag
// bytes start clear and are zero-filled on first touch.
TEST(ShadowMemoryTest, DefaultSizeCostsNoResidentMemoryUntilTouched)
{
    int64_t before = test::residentKiB();
    mem::ShadowMemory sh(mem::DeviceMemory::kDefaultSize);
    int64_t grown = test::residentKiB() - before;
    if (test::kCallocIsLazy) {
        EXPECT_LT(grown, test::kUntouchedBoundKiB) << grown << " KiB";
    }
    for (mem::DevPtr p : {mem::DevPtr{0}, mem::DevPtr{sh.size() / 2},
                          mem::DevPtr{sh.size() - 1}}) {
        EXPECT_FALSE(sh.rangeAddressable(p, 1)) << p;
        EXPECT_FALSE(sh.rangeInitialized(p, 1)) << p;
    }
}

// ---------------------------------------------------------------------
// Fixture for everything that owns a driver lifecycle
// ---------------------------------------------------------------------

class SancheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearEnv();
        Sanitizer::instance().reset();
        resetDriver();
    }

    void
    TearDown() override
    {
        clearEnv();
        Sanitizer::instance().reset();
        resetDriver();
    }

    static void
    clearEnv()
    {
        clearEngineEnv();
        unsetenv("NVBIT_SIM_SANCHECK");
        unsetenv("NVBIT_SIM_SANCHECK_FATAL");
        unsetenv("NVBIT_SIM_SANCHECK_REPORT");
    }

    /** Fresh device with the given checks; returns its context. */
    CUcontext
    initDevice(uint32_t mask)
    {
        resetDriver();
        sim::GpuConfig cfg;
        cfg.num_sms = 2;
        cfg.sancheck_mask = mask;
        setDeviceConfig(cfg);
        checkCu(cuInit(0), "init");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        // Load the store kernel up front so its module allocation
        // lands before any test allocation: launchStore() must not
        // perturb the allocator mid-test (a module loaded after a
        // cuMemFree would reuse the freed block).
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, kStorePtx, 0), "load");
        store_fn_ = nullptr;
        checkCu(cuModuleGetFunction(&store_fn_, mod, "tsanst"), "get");
        return ctx;
    }

    /** Launches one thread of the pre-loaded kernel storing to @p addr. */
    CUresult
    launchStore(CUdeviceptr addr)
    {
        void *params[] = {&addr};
        return cuLaunchKernel(store_fn_, 1, 1, 1, 1, 1, 1, 0, nullptr,
                              params, nullptr);
    }

    CUfunction store_fn_ = nullptr;
};

// ---------------------------------------------------------------------
// 2. Seeded-bug detection-rate campaign
// ---------------------------------------------------------------------

TEST_F(SancheckTest, CampaignDetectsEverySeededBugClass)
{
    SancheckCampaign::Config cfg;
    const SancheckCampaignReport rep = SancheckCampaign(cfg).run();

    ASSERT_EQ(rep.experiments.size(),
              SancheckCampaign::allExperiments().size());
    EXPECT_EQ(rep.seededCount(), 7u);
    EXPECT_EQ(rep.detectedCount(), 7u) << rep.toJson();
    EXPECT_EQ(rep.escapedCount(), 0u) << rep.toJson();
    EXPECT_EQ(rep.falsePositiveCount(), 0u) << rep.toJson();
    EXPECT_DOUBLE_EQ(rep.detectionRate(), 1.0);

    for (const tools::SancheckExperiment &ex : rep.experiments) {
        if (ex.bug == SeededBug::BarrierDeadlock) {
            // The deadlock is fatal regardless of sancheck: the
            // scheduler kills the launch, synccheck attributes it.
            EXPECT_EQ(ex.status, CUDA_ERROR_LAUNCH_FAILED);
        } else {
            // Every other seeded bug is observed passively: the
            // launch itself still completes.
            EXPECT_EQ(ex.status, CUDA_SUCCESS)
                << tools::seededBugName(ex.bug);
        }
        if (!ex.seeded) {
            for (uint64_t v : ex.violations)
                EXPECT_EQ(v, 0u) << tools::seededBugName(ex.bug);
        }
    }
}

TEST_F(SancheckTest, CampaignReportBitIdenticalAcrossFourEngineConfigs)
{
    std::vector<std::string> reports;
    for (const EngineConfig &e : kEngineMatrix) {
        SancheckCampaign::Config cfg;
        cfg.exec_mode = e.exec_mode;
        cfg.use_traces = e.traces;
        const SancheckCampaignReport rep = SancheckCampaign(cfg).run();
        EXPECT_DOUBLE_EQ(rep.detectionRate(), 1.0) << e.name;
        EXPECT_EQ(rep.falsePositiveCount(), 0u) << e.name;
        reports.push_back(rep.toJson());
    }
    for (size_t i = 1; i < reports.size(); ++i)
        EXPECT_EQ(reports[0], reports[i])
            << kEngineMatrix[0].name << " vs " << kEngineMatrix[i].name;
}

TEST_F(SancheckTest, CampaignSkipsClassesWhoseCheckIsDisabled)
{
    SancheckCampaign::Config cfg;
    cfg.mask = obs::kSancheckMemcheck;
    const SancheckCampaignReport rep = SancheckCampaign(cfg).run();

    // 3 memcheck-seeded classes + 3 clean controls; the race /
    // barrier / uninit seeds cannot be judged and are skipped.
    ASSERT_EQ(rep.experiments.size(), 6u) << rep.toJson();
    EXPECT_EQ(rep.seededCount(), 3u);
    EXPECT_DOUBLE_EQ(rep.detectionRate(), 1.0) << rep.toJson();
    EXPECT_EQ(rep.falsePositiveCount(), 0u) << rep.toJson();
    for (const tools::SancheckExperiment &ex : rep.experiments) {
        EXPECT_EQ(ex.violations[static_cast<size_t>(
                      SanCheck::Racecheck)], 0u);
        EXPECT_EQ(ex.violations[static_cast<size_t>(
                      SanCheck::Initcheck)], 0u);
    }
}

// ---------------------------------------------------------------------
// 3. Reporting semantics
// ---------------------------------------------------------------------

TEST_F(SancheckTest, UseAfterFreeReportsFreedAllocationProvenance)
{
    initDevice(obs::kSancheckAll);
    CUdeviceptr victim = 0;
    checkCu(cuMemAlloc(&victim, 1024), "alloc");
    checkCu(cuMemFree(victim), "free");
    EXPECT_EQ(launchStore(victim + 16), CUDA_SUCCESS);

    Sanitizer &san = Sanitizer::instance();
    EXPECT_EQ(san.violationCount(SanCheck::Memcheck), 1u);
    const auto findings = san.findings();
    ASSERT_EQ(findings.size(), 1u);
    const obs::SanitizerFinding &f = findings[0];
    EXPECT_EQ(f.check, SanCheck::Memcheck);
    EXPECT_EQ(f.space, obs::SanSpace::Global);
    EXPECT_TRUE(f.is_write);
    EXPECT_EQ(f.addr, victim + 16);
    EXPECT_EQ(f.bytes, 4u);
    ASSERT_TRUE(f.has_alloc);
    EXPECT_EQ(f.alloc_base, victim);
    EXPECT_EQ(f.alloc_bytes, 1024u);
    EXPECT_FALSE(f.alloc_live);

    const std::string text = san.textReport();
    EXPECT_NE(text.find("SANCHECK: 1 violation(s)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("freed allocation"), std::string::npos) << text;
    const std::string json = san.toJson();
    EXPECT_NE(json.find("\"check\": \"memcheck\""), std::string::npos);
    EXPECT_NE(json.find("\"live\": false"), std::string::npos);
}

TEST_F(SancheckTest, FindingsDeduplicateAcrossLaunches)
{
    initDevice(obs::kSancheckAll);
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 256), "alloc");
    const CUdeviceptr bad = out + (1u << 20); // allocator gap

    // Same pc / same address twice: two dynamic violations fold into
    // one unique finding with occurrences == 2.
    EXPECT_EQ(launchStore(bad), CUDA_SUCCESS);
    EXPECT_EQ(launchStore(bad), CUDA_SUCCESS);

    Sanitizer &san = Sanitizer::instance();
    EXPECT_EQ(san.totalViolations(), 2u);
    const auto findings = san.findings();
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].occurrences, 2u);
}

TEST_F(SancheckTest, ReportExportsToEnvPathOnFaultPath)
{
    const std::string path =
        ::testing::TempDir() + "sancheck_report.json";
    std::remove(path.c_str());
    setenv("NVBIT_SIM_SANCHECK_REPORT", path.c_str(), 1);
    setenv("NVBIT_SIM_SANCHECK_FATAL", "1", 1);

    CUcontext ctx = initDevice(obs::kSancheckAll);
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 256), "alloc");

    // Fatal promotion: the memcheck error becomes a SanitizerError
    // DeviceException, the launch fails, and the fault path flushes
    // the JSON report without any explicit export call.
    EXPECT_EQ(launchStore(out + (1u << 20)), CUDA_ERROR_LAUNCH_FAILED);
    CUexceptionInfo info;
    ASSERT_EQ(cuCtxGetExceptionInfo(ctx, &info), CUDA_SUCCESS);
    EXPECT_EQ(info.exc.code, TrapCode::SanitizerError);
    EXPECT_STREQ(sim::trapCodeName(info.exc.code), "sanitizer_error");
    EXPECT_EQ(Sanitizer::instance().violationCount(SanCheck::Memcheck),
              1u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "report not written to " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"check\": \"memcheck\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"total_violations\": 1"), std::string::npos)
        << json;
    std::remove(path.c_str());
}

// With a tool attached the app's store runs relocated inside a
// trampoline; the finding still names the app and the store's own pc,
// through the origin resolver the sanitizer shares with the profiler.
TEST_F(SancheckTest, ToolAttachedFindingKeepsAppOrigin)
{
    sim::GpuConfig cfg;
    cfg.num_sms = 2;
    cfg.sancheck_mask = obs::kSancheckMemcheck;
    setDeviceConfig(cfg);
    tools::InstrCountTool tool; // one call before every instruction
    uint64_t store_pc = 0;
    runApp(tool, [&] {
        checkCu(cuInit(0), "init");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, kStorePtx, 0), "load");
        CUfunction fn = nullptr;
        checkCu(cuModuleGetFunction(&fn, mod, "tsanst"), "get");
        for (const Instr *i : nvbit_get_instrs(ctx, fn))
            if (std::string(i->getOpcode()).rfind("ST", 0) == 0)
                store_pc = fn->code_addr + i->getOffset();
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 256), "alloc");
        CUdeviceptr bad = out + (1u << 20);
        void *params[] = {&bad};
        EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr, params,
                                 nullptr),
                  CUDA_SUCCESS);
    });
    ASSERT_NE(store_pc, 0u);
    const auto findings = Sanitizer::instance().findings();
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_FALSE(findings[0].tool_origin);
    EXPECT_EQ(findings[0].app_pc, store_pc);
    EXPECT_NE(findings[0].pc, store_pc)
        << "the store should have run inside its trampoline";
}

TEST_F(SancheckTest, ViolationsAreNonFatalByDefault)
{
    initDevice(obs::kSancheckAll);
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 256), "alloc");
    EXPECT_EQ(launchStore(out + (1u << 20)), CUDA_SUCCESS);
    EXPECT_EQ(Sanitizer::instance().totalViolations(), 1u);
}

// ---------------------------------------------------------------------
// 4. Passivity: no cycle delta, no counters on quiet runs
// ---------------------------------------------------------------------

struct CleanRun {
    uint64_t cycles = 0;
    uint64_t thread_instrs = 0;
    uint64_t violations = 0;
};

TEST_F(SancheckTest, ChecksAreCyclePassiveOnCleanWorkloads)
{
    auto runClean = [&](const char *workload, uint32_t mask) {
        Sanitizer::instance().reset();
        initDevice(mask);
        workloads::makeSpecWorkload(workload)->run(
            workloads::ProblemSize::Test);
        CleanRun r;
        const sim::LaunchStats totals = deviceTotalStats();
        r.cycles = totals.cycles;
        r.thread_instrs = totals.thread_instrs;
        r.violations = Sanitizer::instance().totalViolations();
        resetDriver();
        return r;
    };

    for (const char *w : {"ostencil", "cg"}) {
        const CleanRun off = runClean(w, 0);
        const CleanRun on = runClean(w, obs::kSancheckAll);
        // Zero false positives on clean tier-1 workloads...
        EXPECT_EQ(on.violations, 0u) << w;
        // ...and a zero simulated-cycle delta (the passivity
        // contract: checks observe, they never charge time).
        EXPECT_EQ(on.cycles, off.cycles) << w;
        EXPECT_EQ(on.thread_instrs, off.thread_instrs) << w;
    }
}

TEST_F(SancheckTest, NoFalsePositivesOnAnyTier1Workload)
{
    std::vector<std::string> names = workloads::specSuiteNames();
    for (const std::string &n : workloads::mlSuiteNames())
        names.push_back(n);
    for (const std::string &name : names) {
        Sanitizer::instance().reset();
        initDevice(obs::kSancheckAll);
        const bool spec = [&] {
            for (const std::string &s : workloads::specSuiteNames())
                if (s == name)
                    return true;
            return false;
        }();
        (spec ? workloads::makeSpecWorkload(name)
              : workloads::makeMlWorkload(name))
            ->run(workloads::ProblemSize::Test);
        EXPECT_EQ(Sanitizer::instance().totalViolations(), 0u)
            << name << ":\n"
            << Sanitizer::instance().textReport();
        resetDriver();
    }
}

TEST_F(SancheckTest, QuietRunsCreateNoCounters)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.reset();
    initDevice(obs::kSancheckAll);
    workloads::makeSpecWorkload("ostencil")
        ->run(workloads::ProblemSize::Test);
    EXPECT_EQ(Sanitizer::instance().totalViolations(), 0u);
    // A quiet run must not even *create* the sancheck counter family
    // (counters materialise on first violation only).
    EXPECT_EQ(reg.toPrometheus().find("sancheck"), std::string::npos);
    EXPECT_EQ(reg.toJson().find("sancheck"), std::string::npos);
}

// ---------------------------------------------------------------------
// 5. Environment precedence
// ---------------------------------------------------------------------

TEST_F(SancheckTest, EnvOffOverridesToolRequest)
{
    // The tool asks for everything; the user's explicit "off" wins.
    Sanitizer::instance().requestChecks(obs::kSancheckAll);
    setenv("NVBIT_SIM_SANCHECK", "off", 1);
    initDevice(obs::kSancheckAll);
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 256), "alloc");
    EXPECT_EQ(launchStore(out + (1u << 20)), CUDA_SUCCESS);
    EXPECT_EQ(Sanitizer::instance().totalViolations(), 0u);
}

TEST_F(SancheckTest, EnvListEnablesChecksWithoutToolRequest)
{
    setenv("NVBIT_SIM_SANCHECK", "memcheck", 1);
    initDevice(0);
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 256), "alloc");
    EXPECT_EQ(launchStore(out + (1u << 20)), CUDA_SUCCESS);
    Sanitizer &san = Sanitizer::instance();
    EXPECT_EQ(san.violationCount(SanCheck::Memcheck), 1u);
    EXPECT_EQ(san.violationCount(SanCheck::Racecheck), 0u);
    EXPECT_EQ(san.violationCount(SanCheck::Synccheck), 0u);
    EXPECT_EQ(san.violationCount(SanCheck::Initcheck), 0u);
}

TEST_F(SancheckTest, ToolRequestEnablesChecksOnNextDevice)
{
    // SancheckTool's request is picked up by a device configured
    // without an explicit mask (the nvbit_run path).
    tools::SancheckTool::Options topts;
    topts.print_report = false;
    tools::SancheckTool tool(topts);
    resetDriver();
    sim::GpuConfig cfg;
    cfg.num_sms = 2;
    setDeviceConfig(cfg);
    checkCu(cuInit(0), "init");
    CUcontext ctx = nullptr;
    checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
    CUmodule mod = nullptr;
    checkCu(cuModuleLoadData(&mod, kStorePtx, 0), "load");
    checkCu(cuModuleGetFunction(&store_fn_, mod, "tsanst"), "get");
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 256), "alloc");
    EXPECT_EQ(launchStore(out + (1u << 20)), CUDA_SUCCESS);
    EXPECT_EQ(tool.totalViolations(), 1u);
    EXPECT_NE(tool.report().find("memcheck"), std::string::npos);
}

} // namespace
} // namespace nvbit
