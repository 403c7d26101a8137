/**
 * @file
 * PC-sampling stall-attribution profiler tests (labelled "obs"):
 *
 *  1. Per-reason cycle breakdowns sum exactly to `LaunchStats.cycles`
 *     at every level (launch stats, device totals, per-SM shards) on
 *     every engine configuration.
 *  2. The PC-sample stream is bit-identical across all four engine
 *     configurations (tests/engine_matrix.hpp), and the profiler's
 *     aggregate count matches the simulator's emitted-record counter.
 *  3. Sampling is off by default and charges nothing when off.
 *  4. Histogram metric unit behaviour (bounds, overflow bucket, JSON).
 *  5. Launch-record history cap: NVBIT_SIM_METRICS_HISTORY, oldest-
 *     first eviction at the boundary, exact drop count in snapshots.
 *  6. Teardown idempotence: tools finalizing via both nvbit_at_ctx_term
 *     and nvbit_at_term write their reports exactly once.
 *  7. Fault path: NVBIT_SIM_METRICS / NVBIT_SIM_TRACE /
 *     NVBIT_SIM_PROFILE files are flushed, valid, and complete even
 *     when a launch traps.
 *  8. Tool-vs-app attribution: under an instrumenting tool, samples in
 *     injected machinery are flagged tool-origin and trampoline pcs
 *     map back to original application instructions.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/nvbit.hpp"
#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "sim/gpu.hpp"
#include "tools/bbv_profiler.hpp"
#include "tools/instr_count.hpp"
#include "tools/pc_sampling.hpp"

namespace nvbit {
namespace {

using namespace cudrv;

/** Mixed kernel: divergent guard, strided loads, a barrier and a
 *  counted loop — touches every stall reason the SM layer charges. */
const char *kMixKernel = R"(
.visible .entry mixk(.param .u64 in, .param .u64 out, .param .u32 n)
{
    .reg .u32 %r<10>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<3>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r3, %r1, %r2, %tid.x;
    ld.param.u32 %r4, [n];
    setp.ge.u32 %p1, %r3, %r4;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [in];
    mul.wide.u32 %rd2, %r3, 8;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f1, [%rd3];
    bar.sync 0;
    mov.u32 %r5, 0;
    mov.u32 %r6, 16;
LOOP:
    add.u32 %r5, %r5, %r3;
    sub.u32 %r6, %r6, 1;
    setp.gt.u32 %p2, %r6, 0;
    @%p2 bra LOOP;
    ld.param.u64 %rd4, [out];
    mul.wide.u32 %rd5, %r3, 4;
    add.u64 %rd6, %rd4, %rd5;
    st.global.u32 [%rd6], %r5;
DONE:
    exit;
}
)";

/** Out-of-bounds store (CTA id scales a huge stride). */
const char *kOobPtx = R"(
.visible .entry oobk(.param .u64 out, .param .u32 stride)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<5>;
    mov.u32 %r1, %ctaid.x;
    ld.param.u32 %r2, [stride];
    ld.param.u64 %rd1, [out];
    mul.wide.u32 %rd2, %r1, %r2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    exit;
}
)";

class PassiveTool : public NvbitTool
{};

/** Run kMixKernel with @p launches launch sizes under @p tool. */
void
runMixApp(NvbitTool &tool, const std::vector<uint32_t> &launches,
          std::vector<sim::LaunchStats> *per_launch = nullptr,
          sim::LaunchStats *totals = nullptr, bool destroy_ctx = false)
{
    runApp(tool, [&] {
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kMixKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "mixk"), "get");
        uint32_t max_n = 0;
        for (uint32_t n : launches)
            max_n = std::max(max_n, n);
        CUdeviceptr in, out;
        checkCu(cuMemAlloc(&in, static_cast<size_t>(max_n) * 8 + 8),
                "alloc");
        checkCu(cuMemAlloc(&out, static_cast<size_t>(max_n) * 4 + 4),
                "alloc");
        for (uint32_t n : launches) {
            void *params[] = {&in, &out, &n};
            checkCu(cuLaunchKernel(fn, (n + 127) / 128, 1, 1, 128, 1, 1,
                                   0, nullptr, params, nullptr),
                    "launch");
            if (per_launch)
                per_launch->push_back(lastLaunchStats());
        }
        if (totals)
            *totals = deviceTotalStats();
        if (destroy_ctx)
            checkCu(cuCtxDestroy(ctx), "destroy");
    });
}

uint64_t
reasonSum(const std::array<uint64_t, obs::kNumStallReasons> &a)
{
    return std::accumulate(a.begin(), a.end(), uint64_t{0});
}

class ProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        unsetenv("NVBIT_SIM_PC_SAMPLING");
        unsetenv("NVBIT_SIM_METRICS_HISTORY");
        unsetenv("NVBIT_SIM_METRICS");
        unsetenv("NVBIT_SIM_TRACE");
        unsetenv("NVBIT_SIM_PROFILE");
        obs::MetricsRegistry::instance().reset();
        obs::Profiler::instance().reset();
        obs::Profiler::instance().setRetainRaw(false);
        resetDriver();
        setDeviceConfig(sim::GpuConfig{});
    }
    void
    TearDown() override
    {
        SetUp();
    }
};

// ---------------------------------------------------------------------
// 1. Breakdown sums to cycles at every level
// ---------------------------------------------------------------------

TEST_F(ProfileTest, BreakdownSumsToCyclesAcrossEngines)
{
    for (const EngineConfig &e : kEngineMatrix) {
        SCOPED_TRACE(e.name);
        obs::MetricsRegistry::instance().reset();
        resetDriver();
        sim::GpuConfig cfg;
        e.apply(cfg);
        setDeviceConfig(cfg);

        std::vector<sim::LaunchStats> per_launch;
        sim::LaunchStats totals;
        PassiveTool tool;
        runMixApp(tool, {300, 256, 500}, &per_launch, &totals);

        ASSERT_EQ(per_launch.size(), 3u);
        for (const auto &st : per_launch) {
            EXPECT_GT(st.cycles, 0u);
            EXPECT_EQ(reasonSum(st.cycles_by_reason), st.cycles)
                << "per-launch breakdown must sum to cycles";
        }
        EXPECT_EQ(reasonSum(totals.cycles_by_reason), totals.cycles);

        // Per-SM shards are Idle-padded to the launch cycle count.
        auto launches = obs::MetricsRegistry::instance().launches();
        ASSERT_EQ(launches.size(), 3u);
        for (const auto &rec : launches) {
            EXPECT_EQ(reasonSum(rec.cycles_by_reason), rec.cycles);
            for (const auto &shard : rec.sms)
                EXPECT_EQ(reasonSum(shard.cycles_by_reason), rec.cycles)
                    << "shard breakdown must pad to launch cycles";
        }
    }
}

// ---------------------------------------------------------------------
// 2. Sample-stream determinism across engine configurations
// ---------------------------------------------------------------------

TEST_F(ProfileTest, SampleStreamBitIdenticalAcrossEngines)
{
    obs::Profiler &prof = obs::Profiler::instance();
    prof.setRetainRaw(true);

    auto runOnce = [&](const EngineConfig &e) {
        obs::MetricsRegistry::instance().reset();
        prof.reset();
        resetDriver();
        sim::GpuConfig cfg;
        e.apply(cfg);
        cfg.pc_sample_period = 16;
        setDeviceConfig(cfg);
        PassiveTool tool;
        runMixApp(tool, {300, 256});
        return prof.rawSamples();
    };

    std::vector<obs::PcSample> base = runOnce(kEngineMatrix[0]);
    ASSERT_FALSE(base.empty()) << "period 16 must produce samples";

    // The aggregate count matches the simulator's emitted-record
    // counter, and the JSON export reports the same number.
    EXPECT_EQ(prof.totalSamples(),
              obs::MetricsRegistry::instance().value("sim.pc_samples"));
    std::string json = prof.toJson();
    EXPECT_NE(json.find("\"total_samples\": " +
                        std::to_string(prof.totalSamples())),
              std::string::npos);

    for (const EngineConfig &e : std::span(kEngineMatrix).subspan(1))
        EXPECT_EQ(base, runOnce(e))
            << "sample stream differs for engine config " << e.name;
    prof.setRetainRaw(false);
}

TEST_F(ProfileTest, EnvPeriodOverridesToolRequest)
{
    obs::Profiler &prof = obs::Profiler::instance();
    prof.requestPeriod(16);
    // Explicit env value 0 forces sampling off despite the request.
    setenv("NVBIT_SIM_PC_SAMPLING", "0", 1);
    PassiveTool tool;
    runMixApp(tool, {300});
    EXPECT_EQ(prof.totalSamples(), 0u);
    EXPECT_EQ(obs::MetricsRegistry::instance().value("sim.pc_samples"),
              0u);
    unsetenv("NVBIT_SIM_PC_SAMPLING");
}

// ---------------------------------------------------------------------
// 3. Off by default
// ---------------------------------------------------------------------

TEST_F(ProfileTest, SamplingDisabledEmitsNothing)
{
    PassiveTool tool;
    sim::LaunchStats totals;
    runMixApp(tool, {300}, nullptr, &totals);
    EXPECT_EQ(obs::Profiler::instance().totalSamples(), 0u);
    EXPECT_EQ(obs::MetricsRegistry::instance().value("sim.pc_samples"),
              0u);
    // The stall classification itself is always on (it is how cycles
    // are charged), so the breakdown still sums.
    EXPECT_EQ(reasonSum(totals.cycles_by_reason), totals.cycles);
}

// ---------------------------------------------------------------------
// 4. Histogram metric unit behaviour
// ---------------------------------------------------------------------

TEST_F(ProfileTest, HistogramBucketsBoundsAndOverflow)
{
    auto &mr = obs::MetricsRegistry::instance();
    mr.defineHistogram("h", {10, 100, 1000});
    // Redefinition is idempotent: counts survive.
    mr.observe("h", 5);    // <= 10
    mr.observe("h", 10);   // <= 10 (bounds are inclusive)
    mr.observe("h", 11);   // <= 100
    mr.observe("h", 1000); // <= 1000
    mr.observe("h", 5000); // overflow
    mr.defineHistogram("h", {10, 100, 1000});
    mr.observe("undefined_histogram", 1); // silent no-op

    obs::HistogramSnapshot snap;
    ASSERT_TRUE(mr.histogram("h", snap));
    ASSERT_EQ(snap.bounds, (std::vector<uint64_t>{10, 100, 1000}));
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 2u);
    EXPECT_EQ(snap.counts[1], 1u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.counts[3], 1u);
    EXPECT_EQ(snap.total, 5u);
    EXPECT_EQ(snap.sum, 5u + 10 + 11 + 1000 + 5000);
    EXPECT_FALSE(mr.histogram("undefined_histogram", snap));

    std::string json = mr.toJson();
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"bounds\": [10, 100, 1000]"),
              std::string::npos);
    EXPECT_NE(json.find("\"counts\": [2, 1, 1, 1]"), std::string::npos);

    // Volatile histograms vanish from exact-only snapshots.
    mr.defineHistogram("v", {1}, obs::Stability::Volatile);
    mr.observe("v", 2);
    EXPECT_NE(mr.toJson(false).find("\"v\""), std::string::npos);
    EXPECT_EQ(mr.toJson(true).find("\"v\""), std::string::npos);
}

// ---------------------------------------------------------------------
// 5. Launch-record history cap
// ---------------------------------------------------------------------

TEST_F(ProfileTest, HistoryCapEnvEvictsOldestWithExactDropCount)
{
    auto &mr = obs::MetricsRegistry::instance();
    setenv("NVBIT_SIM_METRICS_HISTORY", "5", 1);
    obs::session::applySettings();
    EXPECT_EQ(mr.launchRecordCap(), 5u);

    for (uint64_t i = 0; i < 8; ++i) {
        obs::LaunchRecord rec;
        rec.thread_instrs = i;
        mr.recordLaunch(std::move(rec));
    }
    auto kept = mr.launches();
    ASSERT_EQ(kept.size(), 5u);
    // Oldest-first eviction: global indices 3..7 survive, in order.
    for (size_t i = 0; i < kept.size(); ++i) {
        EXPECT_EQ(kept[i].index, i + 3);
        EXPECT_EQ(kept[i].thread_instrs, i + 3);
    }
    EXPECT_EQ(mr.launchCount(), 8u);
    EXPECT_NE(mr.toJson().find("\"dropped_launch_records\": 3"),
              std::string::npos);

    // Boundary: exactly at the cap nothing is dropped.
    mr.reset();
    unsetenv("NVBIT_SIM_METRICS_HISTORY");
    mr.setLaunchRecordCap(5);
    for (uint64_t i = 0; i < 5; ++i)
        mr.recordLaunch(obs::LaunchRecord{});
    EXPECT_EQ(mr.launches().size(), 5u);
    EXPECT_NE(mr.toJson().find("\"dropped_launch_records\": 0"),
              std::string::npos);

    // A cap of zero is clamped: the newest record must always survive
    // so labelLastLaunch stays well-defined.
    mr.setLaunchRecordCap(0);
    EXPECT_EQ(mr.launchRecordCap(), 1u);
    EXPECT_EQ(mr.launches().size(), 1u);
    mr.recordLaunch(obs::LaunchRecord{});
    mr.labelLastLaunch("only_survivor");
    auto one = mr.launches();
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].kernel, "only_survivor");
}

// ---------------------------------------------------------------------
// 6. Teardown idempotence
// ---------------------------------------------------------------------

TEST_F(ProfileTest, PcSamplingToolFinalizesExactlyOnce)
{
    std::string prefix =
        ::testing::TempDir() + "pcsamp_idempotence";
    tools::PcSamplingTool::Options opts;
    opts.period = 16;
    opts.output_prefix = prefix;
    tools::PcSamplingTool tool(opts);

    // Explicit cuCtxDestroy fires nvbit_at_ctx_term; the end of runApp
    // fires nvbit_at_term.  Both finalize, files are written once.
    runMixApp(tool, {300, 256}, nullptr, nullptr,
              /*destroy_ctx=*/true);

    EXPECT_EQ(tool.finalizeWrites(), 1u);
    EXPECT_GT(tool.totalSamples(), 0u);

    std::ifstream json(prefix + ".json");
    ASSERT_TRUE(json.good()) << prefix << ".json missing";
    std::stringstream buf;
    buf << json.rdbuf();
    EXPECT_NE(buf.str().find("\"total_samples\": " +
                             std::to_string(tool.totalSamples())),
              std::string::npos);

    std::ifstream folded(prefix + ".folded");
    ASSERT_TRUE(folded.good());
    uint64_t folded_total = 0;
    std::string line;
    while (std::getline(folded, line)) {
        auto sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << "bad folded line: " << line;
        folded_total += std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    }
    EXPECT_EQ(folded_total, tool.totalSamples())
        << "collapsed-stack counts must sum to the sample total";

    std::ifstream txt(prefix + ".txt");
    ASSERT_TRUE(txt.good());
}

TEST_F(ProfileTest, BbvProfilerTeardownIdempotentWithCtxDestroy)
{
    std::string prefix = ::testing::TempDir() + "bbv_idempotence";
    tools::BbvProfiler::Options opts;
    opts.output_prefix = prefix;
    tools::BbvProfiler tool(opts);
    runMixApp(tool, {300}, nullptr, nullptr, /*destroy_ctx=*/true);
    std::ifstream bb(prefix + ".bb");
    EXPECT_TRUE(bb.good()) << "BBV output missing after double teardown";
}

// ---------------------------------------------------------------------
// 7. Fault-path flush of every observability export
// ---------------------------------------------------------------------

TEST_F(ProfileTest, FaultPathFlushesMetricsTraceAndProfile)
{
    std::string dir = ::testing::TempDir();
    std::string metrics_path = dir + "fault_metrics.json";
    std::string trace_path = dir + "fault_trace.json";
    std::string profile_path = dir + "fault_profile.json";
    std::remove(metrics_path.c_str());
    std::remove(trace_path.c_str());
    std::remove(profile_path.c_str());
    // METRICS/PROFILE paths are re-read from the environment at flush
    // time; the tracer needs an explicit sink.
    setenv("NVBIT_SIM_METRICS", metrics_path.c_str(), 1);
    setenv("NVBIT_SIM_PROFILE", profile_path.c_str(), 1);
    obs::Tracer::instance().enableToFile(trace_path);

    sim::GpuConfig cfg;
    cfg.num_sms = 2;
    cfg.pc_sample_period = 16;
    setDeviceConfig(cfg);

    PassiveTool tool;
    runApp(tool, [&] {
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kOobPtx, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "oobk"), "get");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 8), "alloc");
        uint32_t stride = 48u << 20; // CTA 2 runs off the device end
        void *params[] = {&out, &stride};
        EXPECT_EQ(cuLaunchKernel(fn, 4, 1, 1, 1, 1, 1, 0, nullptr,
                                 params, nullptr),
                  CUDA_ERROR_ILLEGAL_ADDRESS);
    });

    auto wellFormed = [](const std::string &path) {
        std::ifstream f(path);
        ASSERT_TRUE(f.good()) << path << " missing after fault";
        std::stringstream buf;
        buf << f.rdbuf();
        std::string s = buf.str();
        ASSERT_FALSE(s.empty()) << path << " empty after fault";
        long depth = 0;
        for (char c : s) {
            if (c == '{')
                ++depth;
            else if (c == '}')
                --depth;
        }
        EXPECT_EQ(depth, 0) << path << " truncated: unbalanced braces";
    };
    wellFormed(metrics_path);
    wellFormed(trace_path);
    wellFormed(profile_path);

    std::ifstream f(metrics_path);
    std::stringstream buf;
    buf << f.rdbuf();
    EXPECT_NE(buf.str().find("\"driver.faults\": 1"),
              std::string::npos);

    obs::Tracer::instance().disableAndFlush();
}

// ---------------------------------------------------------------------
// 8. Tool-vs-app attribution through the core's fault maps
// ---------------------------------------------------------------------

TEST_F(ProfileTest, SamplesAttributeToolAndAppOrigins)
{
    sim::GpuConfig cfg;
    cfg.pc_sample_period = 4; // dense: instrumented code is long
    setDeviceConfig(cfg);

    tools::InstrCountTool tool;
    runMixApp(tool, {300, 256});

    obs::Profiler &prof = obs::Profiler::instance();
    ASSERT_GT(prof.totalSamples(), 0u);

    uint64_t tool_samples = 0, app_samples = 0, remapped = 0;
    for (const auto &h : prof.hotspots()) {
        EXPECT_FALSE(h.func.empty())
            << "pc 0x" << std::hex << h.pc << " unresolved";
        if (h.tool_origin)
            tool_samples += h.total;
        else
            app_samples += h.total;
        if (h.tool_origin && h.app_pc != h.pc && h.app_pc != 0)
            remapped += h.total;
    }
    EXPECT_GT(tool_samples, 0u)
        << "instrumented run must sample injected machinery";
    EXPECT_GT(app_samples, 0u)
        << "original app instructions must still be sampled";
    EXPECT_GT(remapped, 0u)
        << "trampoline pcs must map back to app instructions";
    EXPECT_EQ(tool_samples + app_samples, prof.totalSamples());

    // The text report surfaces the origin column.
    std::string rep = prof.report(10);
    EXPECT_NE(rep.find("tool"), std::string::npos);
    EXPECT_NE(rep.find("app"), std::string::npos);
}

} // namespace
} // namespace nvbit
