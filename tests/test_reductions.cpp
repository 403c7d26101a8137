/**
 * @file
 * Grid-order reductions: atomics whose result nobody reads commit
 * through per-CTA logs instead of waiting on the AtomicGate, and every
 * engine configuration must still produce what the serial walk does.
 *
 *  1. A 64-CTA kernel mixing U32/S32/U64 reductions of every
 *     qualifying op, with a returning atomic per CTA: the values each
 *     CTA saw and the final memory match a host model of the serial
 *     order in all four engine configs.
 *  2. Own-CTA coherence: a plain load or store of a word the CTA still
 *     has a pending reduction on sees (or lands after) its own
 *     contributions.
 *  3. Faults: an out-of-bounds or misaligned reduction in CTA 37 traps
 *     with the same record in every config.
 *  4. Self-observability: reductions never block on the gate
 *     (sim.atomic_gate_waits), and the gate counts the waits that do
 *     happen.
 *  5. End to end: icount and mdiv tool counts on cg/swim equal the
 *     uninstrumented counter oracle in the parallel engine, where the
 *     tools' `red` counters go through the logs.
 *  6. Racing plain stores: CTAs on parallel SMs storing one value to
 *     one word is legal CUDA, and must not be a host data race (the
 *     `tsan` preset runs this suite).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "driver/api.hpp"
#include "engine_matrix.hpp"
#include "mem/device_memory.hpp"
#include "obs/metrics.hpp"
#include "sim/sm.hpp"
#include "tools/kernel_profiler.hpp"
#include "workloads/workloads.hpp"

namespace nvbit {
namespace {

using namespace cudrv;

constexpr unsigned kCtas = 64;

const char *kKernels = R"(
.visible .entry mix(.param .u64 buf, .param .u64 seen, .param .u32 skip)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %tid.x;
    mul.lo.u32 %r3, %r1, 37;
    add.u32 %r3, %r3, %r2;          // v = 37 * cta + tid
    sub.u32 %r4, %r3, 1000;         // s = v - 1000, signed
    mul.lo.u32 %r5, %r3, %r3;
    cvt.u64.u32 %rd2, %r3;
    shl.b64 %rd3, %rd2, 33;
    add.u64 %rd3, %rd3, %rd2;       // w = (v << 33) + v
    ld.param.u64 %rd1, [buf];
    red.global.add.u32 [%rd1], %r3;
    red.global.min.u32 [%rd1+4], %r3;
    red.global.max.u32 [%rd1+8], %r3;
    red.global.and.b32 [%rd1+12], %r3;
    red.global.or.b32 [%rd1+16], %r3;
    red.global.xor.b32 [%rd1+20], %r3;
    red.global.add.s32 [%rd1+24], %r4;
    red.global.min.s32 [%rd1+28], %r4;
    red.global.max.s32 [%rd1+32], %r4;
    red.global.add.u32 [%rd1+36], %r3;
    red.global.xor.b32 [%rd1+36], %r5;
    red.global.add.u64 [%rd1+64], %rd3;
    red.global.min.u64 [%rd1+72], %rd3;
    red.global.max.u64 [%rd1+80], %rd3;
    red.global.and.b64 [%rd1+88], %rd3;
    red.global.or.b64 [%rd1+96], %rd3;
    red.global.xor.b64 [%rd1+104], %rd3;
    red.global.add.u64 [%rd1+112], %rd3;
    red.global.xor.b32 [%rd1+116], %r3;
    setp.ne.u32 %p1, %r2, 0;
    @%p1 bra DONE;
    ld.param.u32 %r7, [skip];
    and.b32 %r7, %r1, %r7;
    setp.ne.u32 %p1, %r7, 0;
    @%p1 bra DONE;                  // CTAs with cta & skip retire unread
    atom.global.add.u32 %r6, [%rd1], 0;
    ld.param.u64 %rd4, [seen];
    mul.wide.u32 %rd5, %r1, 4;
    add.u64 %rd5, %rd4, %rd5;
    st.global.u32 [%rd5], %r6;
DONE:
    exit;
}

.visible .entry coherent(.param .u64 buf)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %tid.x;
    add.u32 %r3, %r2, 1;
    ld.param.u64 %rd1, [buf];
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd2, %rd1, %rd2;       // x = buf[cta]
    add.u64 %rd3, %rd2, 256;        // y = buf[64 + cta]
    red.global.add.u32 [%rd2], %r3;
    red.global.add.u32 [%rd3], 1;
    bar.sync 0;
    setp.ne.u32 %p1, %r2, 0;
    @%p1 bra SKIP;
    ld.global.u32 %r4, [%rd2];
    st.global.u32 [%rd2+512], %r4;  // out = buf[128 + cta]
    mov.u32 %r5, 100;
    st.global.u32 [%rd3], %r5;
SKIP:
    bar.sync 0;
    red.global.add.u32 [%rd3], 1;
    exit;
}

.visible .entry trap(.param .u64 buf, .param .u64 bad)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    ld.param.u64 %rd1, [buf];
    red.global.add.u32 [%rd1], 1;
    setp.ne.u32 %p1, %r1, 37;
    @%p1 bra DONE;
    ld.param.u64 %rd2, [bad];
    red.global.add.u32 [%rd2], 1;
DONE:
    exit;
}

.visible .entry spin(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    ld.param.u64 %rd1, [buf];
    red.global.add.u64 [%rd1], 1;
    setp.ne.u32 %p1, %r1, 0;
    @%p1 bra DONE;
    mov.u32 %r2, 20000;
LOOP:
    sub.u32 %r2, %r2, 1;
    setp.gt.u32 %p1, %r2, 0;
    @%p1 bra LOOP;
DONE:
    red.global.add.u64 [%rd1+8], 1;
    exit;
}

.visible .entry same(.param .u64 buf)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, 7;
    st.global.u32 [%rd1], %r1;
    exit;
}
)";

/** Where a launch left the device: its status, trap record and the
 *  buffer it wrote. */
struct Outcome {
    CUresult launch = CUDA_SUCCESS;
    sim::DeviceException trap;
    std::vector<uint32_t> buf;
    uint64_t gate_waits = 0;
};

class ReductionTest : public ::testing::TestWithParam<EngineConfig>
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        resetDriver();
    }
    void TearDown() override { resetDriver(); }

    /**
     * Load kKernels on a fresh driver in engine @p e, fill a buffer
     * with @p init, launch @p entry over kCtas CTAs of @p block
     * threads with (buf, buf + @p second_off, @p arg) as parameters
     * (kernels read the ones they declare), and read the buffer back.
     */
    static Outcome
    run(const EngineConfig &e, const char *entry, unsigned block,
        const std::vector<uint32_t> &init, uint64_t second_off = 0,
        uint32_t arg = 0)
    {
        resetDriver();
        sim::GpuConfig cfg;
        cfg.mem_bytes = 8 << 20;
        e.apply(cfg);
        setDeviceConfig(cfg);
        checkCu(cuInit(0), "init");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, kKernels, 0), "load");
        CUfunction fn = nullptr;
        checkCu(cuModuleGetFunction(&fn, mod, entry), "get");
        const size_t bytes = init.size() * 4;
        CUdeviceptr buf = 0;
        checkCu(cuMemAlloc(&buf, bytes), "alloc");
        checkCu(cuMemcpyHtoD(buf, init.data(), bytes), "htod");
        CUdeviceptr second = buf + second_off;
        void *params[] = {&buf, &second, &arg};

        auto &mr = obs::MetricsRegistry::instance();
        const uint64_t waits0 = mr.value("sim.atomic_gate_waits");
        Outcome o;
        o.launch = cuLaunchKernel(fn, kCtas, 1, 1, block, 1, 1, 0,
                                  nullptr, params, nullptr);
        o.gate_waits = mr.value("sim.atomic_gate_waits") - waits0;
        if (o.launch != CUDA_SUCCESS) {
            CUexceptionInfo info;
            checkCu(cuCtxGetExceptionInfo(ctx, &info), "exception info");
            o.trap = info.exc;
            return o;
        }
        o.buf.resize(init.size());
        checkCu(cuMemcpyDtoH(o.buf.data(), buf, bytes), "dtoh");
        return o;
    }
};

// ---------------------------------------------------------------------
// 1. Every qualifying op, plus a returning atomic per CTA
// ---------------------------------------------------------------------

/** The mix kernel's result under the serial order: CTAs in grid order,
 *  each instruction over lanes 0..31 (one warp per CTA). */
std::vector<uint32_t>
serialMixModel(const std::vector<uint32_t> &init, uint32_t skip)
{
    std::vector<uint32_t> m = init;
    auto u64At = [&](size_t w) {
        return uint64_t{m[w]} | uint64_t{m[w + 1]} << 32;
    };
    auto setU64 = [&](size_t w, uint64_t v) {
        m[w] = static_cast<uint32_t>(v);
        m[w + 1] = static_cast<uint32_t>(v >> 32);
    };
    for (uint32_t cta = 0; cta < kCtas; ++cta) {
        auto forLanes = [&](auto fn) {
            for (uint32_t tid = 0; tid < 32; ++tid) {
                const uint32_t v = 37 * cta + tid;
                fn(v, static_cast<int32_t>(v - 1000),
                   (uint64_t{v} << 33) + v);
            }
        };
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[0] += v; });
        forLanes([&](uint32_t v, int32_t, uint64_t) {
            m[1] = std::min(m[1], v);
        });
        forLanes([&](uint32_t v, int32_t, uint64_t) {
            m[2] = std::max(m[2], v);
        });
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[3] &= v; });
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[4] |= v; });
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[5] ^= v; });
        forLanes([&](uint32_t, int32_t s, uint64_t) {
            m[6] += static_cast<uint32_t>(s);
        });
        forLanes([&](uint32_t, int32_t s, uint64_t) {
            m[7] = static_cast<uint32_t>(
                std::min(static_cast<int32_t>(m[7]), s));
        });
        forLanes([&](uint32_t, int32_t s, uint64_t) {
            m[8] = static_cast<uint32_t>(
                std::max(static_cast<int32_t>(m[8]), s));
        });
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[9] += v; });
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[9] ^= v * v; });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(16, u64At(16) + w);
        });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(18, std::min(u64At(18), w));
        });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(20, std::max(u64At(20), w));
        });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(22, u64At(22) & w);
        });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(24, u64At(24) | w);
        });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(26, u64At(26) ^ w);
        });
        forLanes([&](uint32_t, int32_t, uint64_t w) {
            setU64(28, u64At(28) + w);
        });
        forLanes([&](uint32_t v, int32_t, uint64_t) { m[29] ^= v; });
        if ((cta & skip) == 0)
            m[32 + cta] = m[0]; // lane 0's atom.add 0 sees word 0
    }
    return m;
}

TEST_P(ReductionTest, MixedReductionsMatchSerialOrder)
{
    // Words 0..9 u32/s32, 16..29 u64 pairs, 32.. one seen value per
    // CTA.  Identity-like starts for min/and, extremes for signed.
    std::vector<uint32_t> init(32 + kCtas, 0);
    init[1] = 0xFFFFFFFFu;
    init[3] = 0xFFFFFFFFu;
    init[7] = 0x7FFFFFFFu;
    init[8] = 0x80000000u;
    init[9] = 12345;
    init[18] = init[19] = 0xFFFFFFFFu;
    init[22] = init[23] = 0xFFFFFFFFu;
    init[28] = 0xDEADBEEFu;
    init[29] = 0x0BADF00Du;
    // skip = 0: every CTA reads the counter back, so each becomes the
    // commit head before it retires.  skip = 1: odd CTAs never read,
    // so they retire with pending logs that must land in grid order.
    for (uint32_t skip : {0u, 1u}) {
        SCOPED_TRACE(skip ? "even CTAs read" : "every CTA reads");
        Outcome o = run(GetParam(), "mix", 32, init, 32 * 4, skip);
        ASSERT_EQ(o.launch, CUDA_SUCCESS);
        const std::vector<uint32_t> want = serialMixModel(init, skip);
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(o.buf[i], want[i]) << "word " << i;
    }
}

// ---------------------------------------------------------------------
// 2. Own-CTA coherence
// ---------------------------------------------------------------------

TEST_P(ReductionTest, PlainAccessSeesOwnPendingReductions)
{
    // Two warps per CTA reduce into x = buf[cta] and y = buf[64 + cta];
    // after bar.sync thread 0 loads x into buf[128 + cta] and stores
    // 100 over y, then every thread adds 1 to y again.
    constexpr uint32_t kBlock = 64;
    Outcome o = run(GetParam(), "coherent", kBlock,
                    std::vector<uint32_t>(3 * kCtas, 0));
    ASSERT_EQ(o.launch, CUDA_SUCCESS);
    const uint32_t own = kBlock * (kBlock + 1) / 2;
    for (unsigned c = 0; c < kCtas; ++c) {
        EXPECT_EQ(o.buf[c], own) << "x of CTA " << c;
        EXPECT_EQ(o.buf[2 * kCtas + c], own) << "loaded x of CTA " << c;
        EXPECT_EQ(o.buf[kCtas + c], 100 + kBlock) << "y of CTA " << c;
    }
}

// ---------------------------------------------------------------------
// 3. Faults are reported at issue, identically
// ---------------------------------------------------------------------

TEST_P(ReductionTest, FaultingReductionTrapsIdentically)
{
    struct Case {
        const char *name;
        uint64_t off;
        sim::TrapCode code;
    };
    for (const Case &c :
         {Case{"out of bounds", 64ull << 20, sim::TrapCode::OutOfBoundsGlobal},
          Case{"misaligned", 2, sim::TrapCode::MisalignedAddress}}) {
        SCOPED_TRACE(c.name);
        const std::vector<uint32_t> init(4, 0);
        Outcome got = run(GetParam(), "trap", 32, init, c.off);
        Outcome ref = run(kEngineMatrix[0], "trap", 32, init, c.off);
        ASSERT_NE(got.launch, CUDA_SUCCESS);
        EXPECT_EQ(got.launch, ref.launch);
        const sim::DeviceException &a = got.trap, &b = ref.trap;
        EXPECT_EQ(a.code, c.code);
        EXPECT_EQ(a.cta_index, 37u);
        EXPECT_EQ(a.code, b.code);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.fault_addr, b.fault_addr);
        EXPECT_EQ(a.space, b.space);
        EXPECT_EQ(a.is_write, b.is_write);
        EXPECT_EQ(a.cta_index, b.cta_index);
        EXPECT_EQ(a.ctaid[0], b.ctaid[0]);
        EXPECT_EQ(a.warp_id, b.warp_id);
        EXPECT_EQ(a.active_mask, b.active_mask);
        EXPECT_EQ(a.sm_id, b.sm_id);
    }
}

// ---------------------------------------------------------------------
// 4. Gate waits as self-observability
// ---------------------------------------------------------------------

TEST_P(ReductionTest, ReductionsNeverWaitOnTheGate)
{
    // CTA 0 spins after its first reduction; with a gated atomic every
    // later CTA would block on it.
    Outcome o = run(GetParam(), "spin", 32, std::vector<uint32_t>(4, 0));
    ASSERT_EQ(o.launch, CUDA_SUCCESS);
    EXPECT_EQ(o.buf[0], kCtas * 32);
    EXPECT_EQ(o.buf[2], kCtas * 32);
    EXPECT_EQ(o.gate_waits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ReductionTest,
                         ::testing::ValuesIn(kEngineMatrix),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST(AtomicGateTest, CountsBlockedWaitsAndCommitsLogsInGridOrder)
{
    mem::DeviceMemory mem(1 << 20);
    const mem::DevPtr x = mem.alloc(8);
    sim::AtomicGate gate(3, mem);
    // CTA 2 retires first; its log must wait for CTAs 0 and 1.
    sim::ReductionLog log2;
    log2.add(x, isa::AtomOp::ADD, isa::DType::U64, 5);
    gate.markDone(2, log2);
    EXPECT_TRUE(log2.empty());
    EXPECT_EQ(mem.read64(x), 0u);

    std::thread waiter([&] { gate.waitForPriorCtas(1); });
    while (gate.waits() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // CTA 0 retires with a MAX that must land before CTA 2's ADD.
    sim::ReductionLog log0;
    log0.add(x, isa::AtomOp::MAX, isa::DType::U64, 7);
    gate.markDone(0, log0);
    waiter.join();
    EXPECT_EQ(gate.waits(), 1u);
    EXPECT_GT(gate.waitNs(), 0u);
    EXPECT_EQ(mem.read64(x), 7u);
    EXPECT_TRUE(gate.isHead(1));

    sim::ReductionLog log1;
    gate.markDone(1, log1);
    EXPECT_EQ(mem.read64(x), 12u);
    EXPECT_TRUE(gate.isHead(3));
}

TEST(ReductionLogTest, FoldsOnlyRepeatsOfTheNewestEntryOnAWord)
{
    mem::DeviceMemory mem(1 << 20);
    const mem::DevPtr x = mem.alloc(8);
    mem.write64(x, 10);
    sim::ReductionLog log;
    // (((10 + 1 + 2) max 20) + 3) with the high half xor'd in between.
    log.add(x, isa::AtomOp::ADD, isa::DType::U64, 1);
    log.add(x, isa::AtomOp::ADD, isa::DType::U64, 2);
    log.add(x, isa::AtomOp::MAX, isa::DType::U64, 20);
    log.add(x + 4, isa::AtomOp::XOR, isa::DType::U32, 1);
    log.add(x, isa::AtomOp::ADD, isa::DType::U64, 3);
    EXPECT_TRUE(log.overlaps(x + 4, 4));
    EXPECT_FALSE(log.overlaps(x + 8, 4));
    log.applyTo(mem);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(mem.read64(x), (uint64_t{1} << 32) + 23);
}

// ---------------------------------------------------------------------
// 5. Tools' red counters end to end
// ---------------------------------------------------------------------

TEST(ReductionEndToEndTest, ToolCountsMatchOracleInParallelEngine)
{
    clearEngineEnv();
    resetDriver();
    for (const EngineConfig &e : kEngineMatrix) {
        if (e.exec_mode != sim::ExecMode::Parallel)
            continue;
        SCOPED_TRACE(e.name);
        setenv("NVBIT_SIM_EXEC", "parallel", 1);
        setenv("NVBIT_SIM_TRACES", e.traces ? "1" : "0", 1);
        for (const char *app : {"cg", "swim"}) {
            SCOPED_TRACE(app);
            auto workload = [&] {
                checkCu(cuInit(0), "init");
                CUcontext ctx = nullptr;
                checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
                workloads::makeSpecWorkload(app)->run(
                    workloads::ProblemSize::Test);
            };
            for (auto mode : {tools::DifferentialMode::InstrCount,
                              tools::DifferentialMode::MemDivergence}) {
                tools::DifferentialResult res =
                    tools::runKprofDifferential(mode, workload);
                ASSERT_FALSE(res.rows.empty());
                for (const tools::DifferentialRow &r : res.rows)
                    EXPECT_TRUE(r.match)
                        << r.quantity << ": tool=" << r.tool_value
                        << " counters=" << r.counter_value;
            }
        }
        clearEngineEnv();
    }
    resetDriver();
}

// ---------------------------------------------------------------------
// 6. Racing plain stores
// ---------------------------------------------------------------------

TEST(RacingStoreTest, ParallelSmsStoringOneWordAgree)
{
    clearEngineEnv();
    for (const EngineConfig &e : kEngineMatrix) {
        if (e.exec_mode != sim::ExecMode::Parallel)
            continue;
        SCOPED_TRACE(e.name);
        resetDriver();
        sim::GpuConfig cfg;
        cfg.mem_bytes = 8 << 20;
        cfg.num_sms = 2;
        e.apply(cfg);
        setDeviceConfig(cfg);
        checkCu(cuInit(0), "init");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, kKernels, 0), "load");
        CUfunction fn = nullptr;
        checkCu(cuModuleGetFunction(&fn, mod, "same"), "get");
        CUdeviceptr buf = 0;
        checkCu(cuMemAlloc(&buf, 4), "alloc");
        void *params[] = {&buf};
        ASSERT_EQ(cuLaunchKernel(fn, 16, 1, 1, 32, 1, 1, 0, nullptr,
                                 params, nullptr),
                  CUDA_SUCCESS);
        uint32_t v = 0;
        checkCu(cuMemcpyDtoH(&v, buf, 4), "dtoh");
        EXPECT_EQ(v, 7u);
    }
    resetDriver();
}

} // namespace
} // namespace nvbit
