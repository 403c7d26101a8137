/**
 * @file
 * Tests for the hardware performance-counter & metric subsystem.
 *
 * Groups:
 *  1. Determinism: event sets are bit-identical across all four engine
 *     configurations (tests/engine_matrix.hpp) on every tier-1
 *     workload.
 *  2. Passivity: enabling every event group changes the simulated
 *     cycle count (and device memory) by exactly zero.
 *  3. Event-group API semantics: error codes, accumulation across
 *     launches, disable/reset, destruction, context teardown.
 *  4. Metric formulas: the declarative evaluator on known inputs.
 *  5. Targeted kernels: shared-memory bank conflicts and global-memory
 *     sector coalescing produce the exact textbook counts.
 *  6. MetricsRegistry export: per-SM shards carry cache stats and
 *     event sets that sum to the launch record.
 *  7. kernel_profiler teardown idempotence and counter-vs-
 *     instrumentation differential agreement on tier-1 workloads.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/nvbit.hpp"
#include "driver/api.hpp"
#include "driver/event_groups.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "isa/abi.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "sim/gpu.hpp"
#include "tools/kernel_profiler.hpp"
#include "workloads/workloads.hpp"

namespace nvbit {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::DType;
using obs::HwEvent;

/** FNV-1a over a byte range. */
uint64_t
fnv1a(const uint8_t *p, size_t n)
{
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::unique_ptr<workloads::Workload>
makeWorkload(const std::string &param)
{
    bool spec = param.rfind("spec_", 0) == 0;
    std::string name = spec ? param.substr(5) : param.substr(3);
    return spec ? workloads::makeSpecWorkload(name)
                : workloads::makeMlWorkload(name);
}

std::vector<std::string>
allWorkloadParams()
{
    std::vector<std::string> v;
    for (const auto &n : workloads::specSuiteNames())
        v.push_back("spec_" + n);
    for (const auto &n : workloads::mlSuiteNames())
        v.push_back("ml_" + n);
    return v;
}

// ---------------------------------------------------------------------
// 1. Event determinism across the four engine configurations
// ---------------------------------------------------------------------

struct EventRun {
    obs::EventSet events;
    uint64_t cycles = 0;
    uint64_t mem_hash = 0;
};

EventRun
runForEvents(const std::string &param, const EngineConfig &e)
{
    cudrv::resetDriver();
    sim::GpuConfig cfg;
    e.apply(cfg);
    cudrv::setDeviceConfig(cfg);
    cudrv::checkCu(cudrv::cuInit(0), "init");
    cudrv::CUcontext ctx = nullptr;
    cudrv::checkCu(cudrv::cuCtxCreate(&ctx, 0, 0), "ctx");

    makeWorkload(param)->run(workloads::ProblemSize::Test);

    EventRun r;
    const sim::LaunchStats totals = cudrv::deviceTotalStats();
    r.events = totals.events;
    r.cycles = totals.cycles;
    const auto &m = cudrv::device().memory();
    constexpr mem::DevPtr kFirstUsable = 4096;
    auto v = m.view(kFirstUsable, m.size() - kFirstUsable);
    r.mem_hash = fnv1a(v.data(), v.size());
    cudrv::resetDriver();
    return r;
}

class EventDeterminismTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { clearEngineEnv(); }
    void TearDown() override { cudrv::resetDriver(); }
};

TEST_P(EventDeterminismTest, EventsIdenticalAcrossEngineConfigs)
{
    const EventRun base = runForEvents(GetParam(), kEngineMatrix[0]);
    EXPECT_FALSE(base.events.empty());
    for (const EngineConfig &e : std::span(kEngineMatrix).subspan(1)) {
        SCOPED_TRACE(e.name);
        const EventRun r = runForEvents(GetParam(), e);
        for (size_t i = 0; i < obs::kNumHwEvents; ++i)
            EXPECT_EQ(base.events.counts[i], r.events.counts[i])
                << obs::eventName(static_cast<HwEvent>(i));
        EXPECT_EQ(base.cycles, r.cycles);
        EXPECT_EQ(base.mem_hash, r.mem_hash);
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EventDeterminismTest,
                         ::testing::ValuesIn(allWorkloadParams()));

// ---------------------------------------------------------------------
// 2. Passivity: enabling every event group costs zero cycles
// ---------------------------------------------------------------------

class CounterDriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        cudrv::resetDriver();
    }
    void TearDown() override { cudrv::resetDriver(); }

    cudrv::CUcontext
    initCtx()
    {
        cudrv::checkCu(cudrv::cuInit(0), "init");
        cudrv::CUcontext ctx = nullptr;
        cudrv::checkCu(cudrv::cuCtxCreate(&ctx, 0, 0), "ctx");
        return ctx;
    }

    void
    runOstencil()
    {
        workloads::makeSpecWorkload("ostencil")
            ->run(workloads::ProblemSize::Test);
    }
};

TEST_F(CounterDriverTest, EnablingAllEventGroupsIsFree)
{
    initCtx();
    runOstencil();
    const uint64_t cycles_off = cudrv::deviceTotalStats().cycles;
    const uint64_t instrs_off = cudrv::deviceTotalStats().thread_instrs;
    cudrv::resetDriver();

    cudrv::CUcontext ctx = initCtx();
    // Three overlapping all-event groups: collection must be free and
    // conflict-less no matter how much of it there is.
    std::vector<cudrv::CUeventGroup> groups;
    for (int i = 0; i < 3; ++i) {
        cudrv::CUeventGroup g = nullptr;
        ASSERT_EQ(cudrv::cuEventGroupCreate(ctx, &g),
                  cudrv::CUDA_SUCCESS);
        ASSERT_EQ(cudrv::cuEventGroupAddAllEvents(g),
                  cudrv::CUDA_SUCCESS);
        ASSERT_EQ(cudrv::cuEventGroupEnable(g), cudrv::CUDA_SUCCESS);
        groups.push_back(g);
    }
    runOstencil();
    EXPECT_EQ(cudrv::deviceTotalStats().cycles, cycles_off);
    EXPECT_EQ(cudrv::deviceTotalStats().thread_instrs, instrs_off);

    // All three groups saw the same totals as the device stats.
    const obs::EventSet truth = cudrv::deviceTotalStats().events;
    for (cudrv::CUeventGroup g : groups) {
        for (size_t i = 0; i < obs::kNumHwEvents; ++i) {
            uint64_t v = 0;
            ASSERT_EQ(cudrv::cuEventGroupReadEvent(
                          g, obs::eventName(static_cast<HwEvent>(i)),
                          &v),
                      cudrv::CUDA_SUCCESS);
            EXPECT_EQ(v, truth.counts[i])
                << obs::eventName(static_cast<HwEvent>(i));
        }
    }
}

// ---------------------------------------------------------------------
// 3. Event-group API semantics
// ---------------------------------------------------------------------

TEST_F(CounterDriverTest, EventGroupErrorCodes)
{
    cudrv::CUcontext ctx = initCtx();

    cudrv::CUeventGroup g = nullptr;
    EXPECT_EQ(cudrv::cuEventGroupCreate(ctx, nullptr),
              cudrv::CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(cudrv::cuEventGroupCreate(nullptr, &g),
              cudrv::CUDA_ERROR_INVALID_CONTEXT);
    ASSERT_EQ(cudrv::cuEventGroupCreate(ctx, &g), cudrv::CUDA_SUCCESS);

    EXPECT_EQ(cudrv::cuEventGroupAddEvent(g, "no_such_event"),
              cudrv::CUDA_ERROR_NOT_FOUND);
    ASSERT_EQ(cudrv::cuEventGroupAddEvent(g, "inst_executed"),
              cudrv::CUDA_SUCCESS);
    // Idempotent re-add.
    ASSERT_EQ(cudrv::cuEventGroupAddEvent(g, "inst_executed"),
              cudrv::CUDA_SUCCESS);

    uint64_t v = 0;
    // Reading an event outside the selection is NOT_FOUND.
    EXPECT_EQ(cudrv::cuEventGroupReadEvent(g, "warps_launched", &v),
              cudrv::CUDA_ERROR_NOT_FOUND);
    EXPECT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(v, 0u);

    // Selection-size query and too-small capacity.
    size_t n = 0;
    ASSERT_EQ(cudrv::cuEventGroupReadAllEvents(g, &n, nullptr, nullptr),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(n, 1u);
    n = 0;
    HwEvent id;
    uint64_t val;
    EXPECT_EQ(cudrv::cuEventGroupReadAllEvents(g, &n, &id, &val),
              cudrv::CUDA_ERROR_INVALID_VALUE);

    ASSERT_EQ(cudrv::cuEventGroupDestroy(g), cudrv::CUDA_SUCCESS);
    // Stale handle.
    EXPECT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(cudrv::cuEventGroupDestroy(g),
              cudrv::CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(cudrv::cuEventGroupDestroy(nullptr),
              cudrv::CUDA_ERROR_INVALID_VALUE);
}

TEST_F(CounterDriverTest, EventGroupAccumulateDisableReset)
{
    cudrv::CUcontext ctx = initCtx();
    cudrv::CUeventGroup g = nullptr;
    ASSERT_EQ(cudrv::cuEventGroupCreate(ctx, &g), cudrv::CUDA_SUCCESS);
    ASSERT_EQ(cudrv::cuEventGroupAddEvent(g, "inst_executed"),
              cudrv::CUDA_SUCCESS);

    // Disabled groups see nothing.
    runOstencil();
    uint64_t v = 0;
    ASSERT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(v, 0u);

    // Enabled groups accumulate across launches; reads don't consume.
    ASSERT_EQ(cudrv::cuEventGroupEnable(g), cudrv::CUDA_SUCCESS);
    runOstencil();
    uint64_t once = 0;
    ASSERT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &once),
              cudrv::CUDA_SUCCESS);
    EXPECT_GT(once, 0u);
    runOstencil();
    ASSERT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(v, 2 * once);

    // Disable freezes the accumulator.
    ASSERT_EQ(cudrv::cuEventGroupDisable(g), cudrv::CUDA_SUCCESS);
    runOstencil();
    ASSERT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(v, 2 * once);

    // Reset zeroes values but keeps the selection.
    ASSERT_EQ(cudrv::cuEventGroupResetAllEvents(g),
              cudrv::CUDA_SUCCESS);
    ASSERT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(v, 0u);
    ASSERT_EQ(cudrv::cuEventGroupEnable(g), cudrv::CUDA_SUCCESS);
    runOstencil();
    ASSERT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_SUCCESS);
    EXPECT_EQ(v, once);
}

TEST_F(CounterDriverTest, ContextDestroyInvalidatesGroups)
{
    cudrv::CUcontext ctx = initCtx();
    cudrv::CUeventGroup g = nullptr;
    ASSERT_EQ(cudrv::cuEventGroupCreate(ctx, &g), cudrv::CUDA_SUCCESS);
    ASSERT_EQ(cudrv::cuEventGroupAddAllEvents(g), cudrv::CUDA_SUCCESS);
    ASSERT_EQ(cudrv::cuEventGroupEnable(g), cudrv::CUDA_SUCCESS);
    cudrv::checkCu(cudrv::cuCtxDestroy(ctx), "ctx destroy");
    uint64_t v = 0;
    EXPECT_EQ(cudrv::cuEventGroupReadEvent(g, "inst_executed", &v),
              cudrv::CUDA_ERROR_INVALID_VALUE);
}

// ---------------------------------------------------------------------
// 4. Metric formulas
// ---------------------------------------------------------------------

TEST(MetricFormulaTest, DescriptorsEnumerated)
{
    EXPECT_EQ(obs::eventDescriptors().size(), obs::kNumHwEvents);
    EXPECT_GE(obs::metricDescriptors().size(), 12u);
    EXPECT_NE(obs::findEvent("inst_executed"), nullptr);
    EXPECT_EQ(obs::findEvent("no_such_event"), nullptr);
    EXPECT_NE(obs::findMetric("ipc"), nullptr);
    EXPECT_EQ(obs::findMetric("no_such_metric"), nullptr);
}

TEST(MetricFormulaTest, KnownInputsKnownValues)
{
    obs::MetricInputs in;
    in.events.add(HwEvent::InstExecuted, 100);
    in.elapsed_cycles = 50;
    double v = 0.0;
    ASSERT_TRUE(obs::evaluateMetric("ipc", in, &v));
    EXPECT_DOUBLE_EQ(v, 2.0);

    in.events.add(HwEvent::EligibleWarpsSum, 250);
    ASSERT_TRUE(obs::evaluateMetric("eligible_warps_per_issue", in, &v));
    EXPECT_DOUBLE_EQ(v, 2.5);

    in.events.add(HwEvent::L1SectorReadHits, 3);
    in.events.add(HwEvent::L1SectorWriteMisses, 1);
    ASSERT_TRUE(obs::evaluateMetric("l1_hit_rate", in, &v));
    EXPECT_DOUBLE_EQ(v, 75.0);

    in.events.add(HwEvent::GlobalLoadRequests, 2);
    in.events.add(HwEvent::GlobalLoadSectors, 8);
    ASSERT_TRUE(
        obs::evaluateMetric("gld_transactions_per_request", in, &v));
    EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(MetricFormulaTest, ZeroDenominatorIsUndefined)
{
    obs::MetricInputs empty;
    double v = -1.0;
    EXPECT_FALSE(obs::evaluateMetric("ipc", empty, &v));
    EXPECT_FALSE(obs::evaluateMetric("l1_hit_rate", empty, &v));
    EXPECT_FALSE(obs::evaluateMetric("no_such_metric", empty, &v));
    EXPECT_DOUBLE_EQ(v, -1.0); // untouched
    EXPECT_TRUE(obs::evaluateAllMetrics(empty).empty());
}

// ---------------------------------------------------------------------
// 5. Targeted kernels: bank conflicts and sector coalescing
// ---------------------------------------------------------------------

class CounterKernelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        sim::GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.mem_bytes = 8 << 20;
        gpu_ = std::make_unique<sim::GpuDevice>(cfg);
    }

    uint64_t
    place(const std::vector<Instruction> &prog)
    {
        auto bytes = isa::encodeAll(gpu_->family(), prog);
        mem::DevPtr p = gpu_->memory().alloc(bytes.size(), 16);
        gpu_->memory().write(p, bytes.data(), bytes.size());
        return p;
    }

    /** One warp storing to shared memory at laneid * stride bytes
     *  (stride 0 = broadcast address). */
    sim::LaunchStats
    runSharedStride(uint32_t stride)
    {
        std::vector<Instruction> prog;
        prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
        prog.push_back(isa::makeMovImm(10, static_cast<int32_t>(stride)));
        prog.push_back(isa::makeMovImm(9, 0));
        Instruction mad;
        mad.op = Opcode::IMAD;
        mad.rd = 8;
        mad.ra = 4;
        mad.rb = 10;
        mad.rc = 9;
        prog.push_back(mad);
        prog.push_back(isa::makeStore(Opcode::STS, 8, 0, 4));
        prog.push_back(isa::makeLoad(Opcode::LDS, 12, 8, 0));
        prog.push_back(isa::makeExit());
        uint64_t entry = place(prog);

        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = 32;
        lp.shared_bytes = 32 * 128 + 8;
        return gpu_->launch(lp);
    }

    /** One warp storing 4 bytes per lane to global memory at
     *  laneid * stride bytes off a 128-byte-aligned buffer. */
    sim::LaunchStats
    runGlobalStride(uint32_t stride)
    {
        mem::DevPtr buf = gpu_->memory().alloc(32 * stride + 128, 128);
        std::vector<Instruction> prog;
        prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeMovImm(10, static_cast<int32_t>(stride)));
        Instruction mad;
        mad.op = Opcode::IMAD;
        mad.mod = isa::modSetDType(0, DType::U64);
        mad.rd = 8;
        mad.ra = 4;
        mad.rb = 10;
        mad.rc = 6;
        prog.push_back(mad);
        prog.push_back(isa::makeStore(Opcode::STG, 8, 0, 4));
        prog.push_back(isa::makeExit());
        uint64_t entry = place(prog);

        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = 32;
        return gpu_->launch(lp);
    }

    std::unique_ptr<sim::GpuDevice> gpu_;
};

TEST_F(CounterKernelTest, SharedStrideOneWordIsConflictFree)
{
    // laneid * 4 bytes: 32 lanes hit 32 distinct banks.
    sim::LaunchStats st = runSharedStride(4);
    EXPECT_EQ(st.events.get(HwEvent::SharedStoreRequests), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedStoreTransactions), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedLoadRequests), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedLoadTransactions), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedBankConflicts), 0u);
}

TEST_F(CounterKernelTest, SharedStride128IsThirtyTwoWayConflict)
{
    // laneid * 128 bytes: all 32 lanes hit bank 0 at distinct words.
    sim::LaunchStats st = runSharedStride(128);
    EXPECT_EQ(st.events.get(HwEvent::SharedStoreRequests), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedStoreTransactions), 32u);
    EXPECT_EQ(st.events.get(HwEvent::SharedLoadTransactions), 32u);
    // 31 extra transactions for the store + 31 for the load.
    EXPECT_EQ(st.events.get(HwEvent::SharedBankConflicts), 62u);
}

TEST_F(CounterKernelTest, SharedBroadcastIsFree)
{
    // Stride 0: every lane reads/writes the same word — one
    // transaction, no conflicts (the broadcast case).
    sim::LaunchStats st = runSharedStride(0);
    EXPECT_EQ(st.events.get(HwEvent::SharedStoreTransactions), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedLoadTransactions), 1u);
    EXPECT_EQ(st.events.get(HwEvent::SharedBankConflicts), 0u);
}

TEST_F(CounterKernelTest, CoalescedStoreTouchesFourSectors)
{
    // Contiguous 4-byte stores: 32 lanes x 4 B = 128 B = 4 sectors.
    sim::LaunchStats st = runGlobalStride(4);
    EXPECT_EQ(st.events.get(HwEvent::GlobalStoreRequests), 1u);
    EXPECT_EQ(st.events.get(HwEvent::GlobalStoreSectors), 4u);
    EXPECT_EQ(st.events.get(HwEvent::GlobalStoreBytes), 128u);
    EXPECT_EQ(st.unique_sectors_sum, 4u);
}

TEST_F(CounterKernelTest, StridedStoreTouchesOneSectorPerLane)
{
    // 32-byte stride: every lane lands in its own sector.
    sim::LaunchStats st = runGlobalStride(32);
    EXPECT_EQ(st.events.get(HwEvent::GlobalStoreRequests), 1u);
    EXPECT_EQ(st.events.get(HwEvent::GlobalStoreSectors), 32u);
    EXPECT_EQ(st.events.get(HwEvent::GlobalStoreBytes), 128u);
    // Write traffic reaches the L1 as sectors too.
    EXPECT_EQ(st.events.get(HwEvent::L1SectorWriteHits) +
                  st.events.get(HwEvent::L1SectorWriteMisses),
              32u);
}

// ---------------------------------------------------------------------
// 6. MetricsRegistry export
// ---------------------------------------------------------------------

TEST_F(CounterDriverTest, LaunchRecordCarriesEventsAndShardCacheStats)
{
    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    mr.reset();
    initCtx();
    runOstencil();

    auto launches = mr.launches();
    ASSERT_FALSE(launches.empty());
    const obs::LaunchRecord &rec = launches.back();
    EXPECT_FALSE(rec.events.empty());
    EXPECT_GT(rec.unique_sectors_sum, 0u);
    EXPECT_GE(rec.unique_sectors_sum, rec.unique_lines_sum);
    EXPECT_GT(rec.max_warps_per_sm, 0u);

    // Per-SM shards must sum to the launch-level aggregates.
    obs::EventSet shard_sum;
    uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    for (const obs::SmShard &sh : rec.sms) {
        shard_sum.merge(sh.events);
        l1h += sh.l1_hits;
        l1m += sh.l1_misses;
        l2h += sh.l2_hits;
        l2m += sh.l2_misses;
    }
    EXPECT_EQ(shard_sum, rec.events);
    EXPECT_EQ(l1h, rec.l1_hits);
    EXPECT_EQ(l1m, rec.l1_misses);
    EXPECT_EQ(l2h, rec.l2_hits);
    EXPECT_EQ(l2m, rec.l2_misses);

    // Events, metrics and the sector sum reach the exact-only JSON.
    std::string json = mr.toJson(true);
    EXPECT_NE(json.find("\"unique_sectors_sum\""), std::string::npos);
    EXPECT_NE(json.find("\"inst_executed\""), std::string::npos);
    EXPECT_NE(json.find("\"ipc\""), std::string::npos);
    mr.reset();
}

// ---------------------------------------------------------------------
// 7. kernel_profiler: teardown idempotence + differential agreement
// ---------------------------------------------------------------------

TEST_F(CounterDriverTest, KprofTeardownIsIdempotent)
{
    // Explicit cuCtxDestroy fires nvbit_at_ctx_term, then runApp's end
    // fires nvbit_at_term; the report must be written exactly once.
    tools::KernelProfilerTool::Options opts;
    opts.output_prefix =
        ::testing::TempDir() + "/kprof_teardown_explicit";
    tools::KernelProfilerTool kprof(opts);
    runApp(kprof, [&] {
        cudrv::CUcontext ctx = initCtx();
        runOstencil();
        cudrv::checkCu(cudrv::cuCtxDestroy(ctx), "ctx destroy");
    });
    EXPECT_EQ(kprof.finalizeWrites(), 1u);
    EXPECT_FALSE(kprof.kernels().empty());
    EXPECT_TRUE(kprof.eventGroupConsistent());

    // Without an explicit destroy, only nvbit_at_term finalizes.
    tools::KernelProfilerTool::Options opts2;
    opts2.output_prefix =
        ::testing::TempDir() + "/kprof_teardown_implicit";
    tools::KernelProfilerTool kprof2(opts2);
    runApp(kprof2, [&] {
        initCtx();
        runOstencil();
    });
    EXPECT_EQ(kprof2.finalizeWrites(), 1u);
    EXPECT_TRUE(kprof2.eventGroupConsistent());
}

class DifferentialAgreementTest
    : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        cudrv::resetDriver();
    }
    void TearDown() override { cudrv::resetDriver(); }
};

TEST_P(DifferentialAgreementTest, CountersMatchInstrumentation)
{
    auto workload = [&] {
        cudrv::checkCu(cudrv::cuInit(0), "init");
        cudrv::CUcontext ctx = nullptr;
        cudrv::checkCu(cudrv::cuCtxCreate(&ctx, 0, 0), "ctx");
        makeWorkload(GetParam())->run(workloads::ProblemSize::Test);
    };
    // The tool-vs-counter agreement must hold on the per-instruction
    // engine and on the traced engine, where eligible probe callsites
    // execute as inlined trace entries instead of trampolines.
    for (const char *traces : {"0", "1"}) {
        setenv("NVBIT_SIM_TRACES", traces, 1);
        SCOPED_TRACE(std::string("NVBIT_SIM_TRACES=") + traces);
        for (auto mode : {tools::DifferentialMode::InstrCount,
                          tools::DifferentialMode::MemDivergence}) {
            tools::DifferentialResult res =
                tools::runKprofDifferential(mode, workload);
            ASSERT_FALSE(res.rows.empty());
            for (const tools::DifferentialRow &r : res.rows)
                EXPECT_TRUE(r.match)
                    << r.quantity << ": tool=" << r.tool_value
                    << " counters=" << r.counter_value;
            EXPECT_TRUE(res.all_match);
        }
        unsetenv("NVBIT_SIM_TRACES");
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DifferentialAgreementTest,
                         ::testing::ValuesIn(allWorkloadParams()));

} // namespace
} // namespace nvbit
