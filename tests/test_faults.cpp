/**
 * @file
 * Device-exception model tests (labelled "faults" in ctest):
 *
 *  1. Differential trap matrix: every trap kind must be reported
 *     identically — code, pc, fault address, execution context, and
 *     earliest-trapping-CTA-in-grid-order selection — across the
 *     untraced engine configurations (tests/engine_matrix.hpp).
 *  2. Driver semantics: sticky error contexts, cuCtxGetExceptionInfo,
 *     cuDevicePrimaryCtxReset recovery, launch-dimension validation,
 *     the cycle watchdog (config + env override), cuGetErrorString.
 *  3. Fault attribution under instrumentation: app-origin faults in
 *     swapped code and in relocated trampoline slots, tool-origin
 *     faults inside injected device functions.
 *  4. The SASSIFI-style campaign runner end to end.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "driver/api.hpp"
#include "engine_matrix.hpp"
#include "isa/abi.hpp"
#include "sim/gpu.hpp"
#include "tools/common.hpp"
#include "tools/fault_injection.hpp"

namespace nvbit {
namespace {

using isa::Instruction;
using isa::Opcode;
using sim::DeviceException;
using sim::TrapCode;

// ---------------------------------------------------------------------
// 1. Differential trap matrix on a bare device
// ---------------------------------------------------------------------

class TrapMatrixTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
    }

    /** Builds the program on a fresh device and returns its entry pc. */
    using ProgFn =
        std::function<uint64_t(sim::GpuDevice &, sim::LaunchParams &)>;

    static uint64_t
    place(sim::GpuDevice &gpu, const std::vector<Instruction> &prog)
    {
        auto bytes = isa::encodeAll(gpu.family(), prog);
        mem::DevPtr p = gpu.memory().alloc(bytes.size(), 16);
        gpu.memory().write(p, bytes.data(), bytes.size());
        return p;
    }

    DeviceException
    runTrap(const EngineConfig &e, const ProgFn &make, uint64_t watchdog)
    {
        sim::GpuConfig cfg;
        cfg.num_sms = 2;
        cfg.mem_bytes = 8 << 20;
        e.apply(cfg);
        if (watchdog)
            cfg.watchdog_cycles = watchdog;
        sim::GpuDevice gpu(cfg);
        sim::LaunchParams lp;
        lp.entry_pc = make(gpu, lp);
        try {
            gpu.launch(lp);
        } catch (const DeviceException &ex) {
            return ex;
        }
        ADD_FAILURE() << "expected a DeviceException";
        return {};
    }

    static void
    expectSameTrap(const DeviceException &a, const DeviceException &b)
    {
        EXPECT_EQ(a.code, b.code);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.fault_addr, b.fault_addr);
        EXPECT_EQ(a.space, b.space);
        EXPECT_EQ(a.is_write, b.is_write);
        EXPECT_EQ(a.cta_index, b.cta_index);
        EXPECT_EQ(a.ctaid[0], b.ctaid[0]);
        EXPECT_EQ(a.ctaid[1], b.ctaid[1]);
        EXPECT_EQ(a.warp_id, b.warp_id);
        EXPECT_EQ(a.active_mask, b.active_mask);
        EXPECT_EQ(a.stuck_warps, b.stuck_warps);
    }

    /** Run under both untraced engines; assert bit-identical trap
     *  records. */
    std::vector<DeviceException>
    runAll(const ProgFn &make, uint64_t watchdog = 0)
    {
        std::vector<DeviceException> v;
        for (const EngineConfig &e : kUntracedEngines)
            v.push_back(runTrap(e, make, watchdog));
        for (size_t i = 1; i < v.size(); ++i)
            expectSameTrap(v[0], v[i]);
        return v;
    }
};

TEST_F(TrapMatrixTest, OobStoreSelectsEarliestCtaInGridOrder)
{
    // Each CTA stores 4 bytes at buf + ctaid.x*4MiB on an 8MiB device:
    // CTAs 0 and 1 land inside device memory, CTAs 2 and 3 run off the
    // end.  With two SMs the parallel engine sees both faults; the
    // reported one must still be the earliest in grid order, exactly as
    // in the serial walk.
    constexpr int32_t kStride = 4 << 20;
    uint64_t buf_addr = 0;
    auto make = [&buf_addr](sim::GpuDevice &gpu, sim::LaunchParams &lp) {
        mem::DevPtr buf = gpu.memory().alloc(8);
        buf_addr = buf;
        lp.grid[0] = 4;
        lp.block[0] = 1;
        std::vector<Instruction> prog;
        prog.push_back(isa::makeS2R(4, isa::SpecialReg::CTAID_X));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeMovImm(10, kStride));
        Instruction mad;
        mad.op = Opcode::IMAD;
        mad.mod = isa::modSetDType(0, isa::DType::U64);
        mad.rd = 8;
        mad.ra = 4;
        mad.rb = 10;
        mad.rc = 6;
        prog.push_back(mad);
        prog.push_back(isa::makeStore(Opcode::STG, 8, 0, 4));
        prog.push_back(isa::makeExit());
        return place(gpu, prog);
    };

    auto v = runAll(make);
    EXPECT_EQ(v[0].code, TrapCode::OutOfBoundsGlobal);
    EXPECT_EQ(v[0].space, sim::MemSpace::Global);
    EXPECT_TRUE(v[0].is_write);
    EXPECT_TRUE(v[0].has_context);
    EXPECT_EQ(v[0].cta_index, 2u);
    EXPECT_EQ(v[0].ctaid[0], 2u);
    EXPECT_EQ(v.back().fault_addr, buf_addr + 2u * kStride);
}

TEST_F(TrapMatrixTest, MisalignedStoreReportsExactAddressAndPc)
{
    uint64_t buf_addr = 0;
    uint64_t store_pc = 0;
    auto make = [&](sim::GpuDevice &gpu, sim::LaunchParams &lp) {
        mem::DevPtr buf = gpu.memory().alloc(16);
        buf_addr = buf;
        lp.block[0] = 1;
        uint64_t tgt = buf + 2; // within bounds, 2-byte misaligned
        std::vector<Instruction> prog;
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(tgt));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(tgt >> 32));
        prog.push_back(isa::makeMovImm(5, 42));
        size_t store_idx = prog.size();
        prog.push_back(isa::makeStore(Opcode::STG, 6, 0, 5));
        prog.push_back(isa::makeExit());
        uint64_t entry = place(gpu, prog);
        store_pc = entry + store_idx * isa::instrBytes(gpu.family());
        return entry;
    };

    auto v = runAll(make);
    EXPECT_EQ(v[0].code, TrapCode::MisalignedAddress);
    EXPECT_EQ(v[0].space, sim::MemSpace::Global);
    EXPECT_TRUE(v[0].is_write);
    EXPECT_EQ(v.back().fault_addr, buf_addr + 2);
    EXPECT_EQ(v.back().pc, store_pc);
}

TEST_F(TrapMatrixTest, IllegalInstructionReportsFaultingPc)
{
    auto make = [](sim::GpuDevice &gpu, sim::LaunchParams &lp) {
        lp.block[0] = 1;
        Instruction proxy;
        proxy.op = Opcode::PROXY;
        proxy.imm = 7;
        return place(gpu, {proxy, isa::makeExit()});
    };
    auto v = runAll(make);
    EXPECT_EQ(v[0].code, TrapCode::IllegalInstruction);
    EXPECT_TRUE(v[0].has_context);
    EXPECT_NE(v.back().pc, 0u);
}

TEST_F(TrapMatrixTest, SelfRecursionOverflowsCallStack)
{
    auto make = [](sim::GpuDevice &gpu, sim::LaunchParams &lp) {
        lp.block[0] = 1;
        const size_t ib = isa::instrBytes(gpu.family());
        mem::DevPtr entry = gpu.memory().alloc(2 * ib, 16);
        std::vector<Instruction> prog = {isa::makeCalAbs(entry),
                                         isa::makeExit()};
        auto bytes = isa::encodeAll(gpu.family(), prog);
        gpu.memory().write(entry, bytes.data(), bytes.size());
        return entry;
    };
    auto v = runAll(make);
    EXPECT_EQ(v[0].code, TrapCode::CallStackOverflow);
    // The faulting lane's return stack rides along, full to the brim.
    EXPECT_EQ(v[0].ret_stack.size(), sim::kMaxCallDepth);
}

TEST_F(TrapMatrixTest, RetOnEmptyStackUnderflows)
{
    auto make = [](sim::GpuDevice &gpu, sim::LaunchParams &lp) {
        lp.block[0] = 1;
        return place(gpu, {isa::makeRet()});
    };
    auto v = runAll(make);
    EXPECT_EQ(v[0].code, TrapCode::CallStackUnderflow);
    EXPECT_TRUE(v[0].ret_stack.empty());
}

TEST_F(TrapMatrixTest, CycleWatchdogFiresDeterministically)
{
    auto make = [](sim::GpuDevice &gpu, sim::LaunchParams &lp) {
        lp.block[0] = 32;
        const int64_t ib =
            static_cast<int64_t>(isa::instrBytes(gpu.family()));
        return place(gpu, {isa::makeBra(-ib)}); // branch to itself
    };
    auto v = runAll(make, /*watchdog=*/20000);
    EXPECT_EQ(v[0].code, TrapCode::WatchdogTimeout);
    // Same pc in every engine: the cycle streams are identical, so
    // the watchdog trips at the same dynamic instruction everywhere.
    EXPECT_NE(v.back().pc, 0u);
}

// ---------------------------------------------------------------------
// 2. Driver semantics: sticky contexts, reset, validation, watchdog
// ---------------------------------------------------------------------

using namespace cudrv;

/**
 * Stores ctaid.x at out + ctaid.x*stride.  With stride = half the
 * device memory, CTAs 0 and 1 stay inside the address space while CTA
 * 2 (and up) runs off the end — an allocation-independent OOB.
 */
const char *kOobStorePtx = R"(
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

/** Half of DeviceMemory::kDefaultSize: CTA 2's store lands one full
 *  device size beyond `out`. */
constexpr uint32_t kOobStride = 48u << 20;

/** Divergent-barrier deadlock: warps 1-2 park at the first bar.sync
 *  while warp 0 parks at a different one (the classic conditional
 *  __syncthreads() bug).  A barrier some threads merely *exited*
 *  before releases normally — see BarrierReleasesWhenWarpExitsEarly. */
const char *kBarrierDeadlockPtx = R"(
.visible .entry bdl()
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

/** Whole second+third warp exit before the barrier: must release. */
const char *kBarrierEarlyExitPtx = R"(
.visible .entry bee()
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

const char *kInfiniteLoopPtx = R"(
.visible .entry loopk()
{
LOOP:
    bra LOOP;
    exit;
}
)";

class FaultDriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
        resetDriver();
    }
    void TearDown() override { resetDriver(); }

    CUcontext
    initCtx(const EngineConfig &e, uint64_t watchdog = 0)
    {
        resetDriver();
        sim::GpuConfig cfg;
        cfg.num_sms = 2;
        e.apply(cfg);
        if (watchdog)
            cfg.watchdog_cycles = watchdog;
        setDeviceConfig(cfg);
        checkCu(cuInit(0), "init");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        return ctx;
    }

    CUfunction
    loadKernel(const char *ptx, const char *name)
    {
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, ptx, 0), "load");
        CUfunction fn = nullptr;
        checkCu(cuModuleGetFunction(&fn, mod, name), "get");
        return fn;
    }

    struct DrvTrap {
        CUresult status = CUDA_SUCCESS;
        CUexceptionInfo info;
    };

    DrvTrap
    launchTrap(const EngineConfig &e, const char *ptx, const char *name,
               uint32_t grid, uint32_t block, size_t alloc_bytes,
               uint64_t watchdog = 0)
    {
        CUcontext ctx = initCtx(e, watchdog);
        CUfunction fn = loadKernel(ptx, name);
        CUdeviceptr d = 0;
        uint32_t stride = kOobStride;
        void *params[] = {&d, &stride};
        void **kp = nullptr;
        if (alloc_bytes) {
            checkCu(cuMemAlloc(&d, alloc_bytes), "alloc");
            kp = params;
        }
        DrvTrap r;
        r.status = cuLaunchKernel(fn, grid, 1, 1, block, 1, 1, 0,
                                  nullptr, kp, nullptr);
        cuCtxGetExceptionInfo(ctx, &r.info);
        resetDriver();
        return r;
    }
};

TEST_F(FaultDriverTest, OobStorePoisonsContextUntilReset)
{
    CUcontext ctx = initCtx(kDefaultEngine);
    CUfunction fn = loadKernel(kOobStorePtx, "oobk");
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 8), "alloc");
    uint32_t stride = kOobStride;
    void *params[] = {&out, &stride};

    // 4 CTAs store at out + ctaid*48MiB: CTAs 2 and 3 run off the end
    // of the 96MiB device.
    EXPECT_EQ(cuLaunchKernel(fn, 4, 1, 1, 1, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_ERROR_ILLEGAL_ADDRESS);

    // Every subsequent state-touching call returns the sticky error.
    uint32_t host[2] = {0, 0};
    EXPECT_EQ(cuMemcpyDtoH(host, out, 8), CUDA_ERROR_ILLEGAL_ADDRESS);
    CUdeviceptr dummy = 0;
    EXPECT_EQ(cuMemAlloc(&dummy, 16), CUDA_ERROR_ILLEGAL_ADDRESS);
    EXPECT_EQ(cuCtxSynchronize(), CUDA_ERROR_ILLEGAL_ADDRESS);
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_ERROR_ILLEGAL_ADDRESS);

    // The exception record is queryable while the context is poisoned.
    CUexceptionInfo info;
    ASSERT_EQ(cuCtxGetExceptionInfo(ctx, &info), CUDA_SUCCESS);
    EXPECT_TRUE(info.valid);
    EXPECT_EQ(info.error, CUDA_ERROR_ILLEGAL_ADDRESS);
    EXPECT_EQ(info.exc.code, TrapCode::OutOfBoundsGlobal);
    EXPECT_EQ(info.exc.fault_addr, out + 2u * uint64_t(kOobStride));
    EXPECT_TRUE(info.exc.is_write);
    EXPECT_EQ(info.exc.cta_index, 2u);
    EXPECT_EQ(info.func_name, "oobk");

    // Reset: sticky error and the record are cleared, memory is
    // reinitialised, and the device is usable again.
    ASSERT_EQ(cuDevicePrimaryCtxReset(0), CUDA_SUCCESS);
    EXPECT_EQ(cuCtxGetExceptionInfo(ctx, &info), CUDA_ERROR_NOT_FOUND);
    EXPECT_EQ(cuMemcpyDtoH(host, out, 8), CUDA_SUCCESS);
    EXPECT_EQ(host[0], 0u); // user allocations are zero-filled
    EXPECT_EQ(host[1], 0u);

    stride = 4;
    EXPECT_EQ(cuLaunchKernel(fn, 2, 1, 1, 1, 1, 1, 0, nullptr, params,
                             nullptr),
              CUDA_SUCCESS);
    checkCu(cuMemcpyDtoH(host, out, 8), "d2h");
    EXPECT_EQ(host[0], 0u);
    EXPECT_EQ(host[1], 1u);
}

TEST_F(FaultDriverTest, ExceptionInfoIdenticalAcrossEngines)
{
    std::vector<DrvTrap> v;
    for (const EngineConfig &e : kUntracedEngines)
        v.push_back(launchTrap(e, kOobStorePtx, "oobk", 4, 1, 8));
    for (const DrvTrap &t : v) {
        EXPECT_EQ(t.status, CUDA_ERROR_ILLEGAL_ADDRESS);
        ASSERT_TRUE(t.info.valid);
        EXPECT_EQ(t.info.exc.code, v[0].info.exc.code);
        EXPECT_EQ(t.info.exc.pc, v[0].info.exc.pc);
        EXPECT_EQ(t.info.exc.fault_addr, v[0].info.exc.fault_addr);
        EXPECT_EQ(t.info.exc.cta_index, v[0].info.exc.cta_index);
    }
    EXPECT_EQ(v[0].info.exc.code, TrapCode::OutOfBoundsGlobal);
    EXPECT_EQ(v[0].info.exc.cta_index, 2u);
}

TEST_F(FaultDriverTest, BarrierDeadlockReportsBarrierPcAndStuckWarps)
{
    std::vector<DrvTrap> v;
    for (const EngineConfig &e : kUntracedEngines)
        v.push_back(launchTrap(e, kBarrierDeadlockPtx, "bdl", 1, 96, 0));
    for (const DrvTrap &t : v) {
        EXPECT_EQ(t.status, CUDA_ERROR_LAUNCH_FAILED);
        ASSERT_TRUE(t.info.valid);
        EXPECT_EQ(t.info.exc.code, TrapCode::BarrierDeadlock);
        // The pc points at the barrier, not 0.
        EXPECT_NE(t.info.exc.pc, 0u);
        EXPECT_EQ(t.info.exc.pc, v[0].info.exc.pc);
        // All three warps are parked: warps 1-2 at the first bar.sync,
        // warp 0 at the second.
        EXPECT_EQ(t.info.exc.stuck_warps,
                  (std::vector<uint32_t>{0, 1, 2}));
        EXPECT_EQ(t.info.exc.warp_id, 0u);
    }
}

TEST_F(FaultDriverTest, BarrierReleasesWhenWarpExitsEarly)
{
    // Early-exited threads don't participate in a barrier (hardware
    // semantics): same-pc waiters must release, not deadlock.
    for (const EngineConfig &e : kUntracedEngines) {
        DrvTrap t = launchTrap(e, kBarrierEarlyExitPtx, "bee", 1, 96, 0);
        EXPECT_EQ(t.status, CUDA_SUCCESS);
        EXPECT_FALSE(t.info.valid);
    }
}

TEST_F(FaultDriverTest, WatchdogTerminatesBarrierFreeInfiniteLoop)
{
    std::vector<DrvTrap> v;
    for (const EngineConfig &e : kUntracedEngines)
        v.push_back(launchTrap(e, kInfiniteLoopPtx, "loopk", 1, 32, 0,
                               /*watchdog=*/200000));
    for (const DrvTrap &t : v) {
        EXPECT_EQ(t.status, CUDA_ERROR_LAUNCH_TIMEOUT);
        ASSERT_TRUE(t.info.valid);
        EXPECT_EQ(t.info.exc.code, TrapCode::WatchdogTimeout);
        EXPECT_EQ(t.info.exc.pc, v[0].info.exc.pc);
    }
}

TEST_F(FaultDriverTest, WatchdogEnvOverrideIsHonoured)
{
    setenv("NVBIT_SIM_WATCHDOG_CYCLES", "150000", 1);
    CUcontext ctx = initCtx(kDefaultEngine);
    CUfunction fn = loadKernel(kInfiniteLoopPtx, "loopk");
    EXPECT_EQ(cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0, nullptr, nullptr,
                             nullptr),
              CUDA_ERROR_LAUNCH_TIMEOUT);
    CUexceptionInfo info;
    ASSERT_EQ(cuCtxGetExceptionInfo(ctx, &info), CUDA_SUCCESS);
    EXPECT_EQ(info.exc.code, TrapCode::WatchdogTimeout);
    unsetenv("NVBIT_SIM_WATCHDOG_CYCLES");
}

TEST_F(FaultDriverTest, LaunchDimensionValidation)
{
    initCtx(kDefaultEngine);
    CUfunction fn = loadKernel(kOobStorePtx, "oobk");
    CUdeviceptr out = 0;
    checkCu(cuMemAlloc(&out, 4096), "alloc");
    uint32_t stride = 4;
    void *params[] = {&out, &stride};

    auto launch = [&](uint32_t gx, uint32_t gy, uint32_t gz, uint32_t bx,
                      uint32_t by, uint32_t bz) {
        return cuLaunchKernel(fn, gx, gy, gz, bx, by, bz, 0, nullptr,
                              params, nullptr);
    };

    // 65536*65536*1 wraps to 0 in 32-bit arithmetic; it must still be
    // rejected, as must every other over-limit shape.
    EXPECT_EQ(launch(1, 1, 1, 65536, 65536, 1),
              CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(1, 1, 1, 2048, 1, 1), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(1, 1, 1, 32, 33, 1), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(1, 1, 1, 1, 1, 65), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(1, 1, 1, 0, 1, 1), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(0, 1, 1, 1, 1, 1), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(1, 65536, 1, 1, 1, 1), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(1, 1, 65536, 1, 1, 1), CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(launch(0x80000000u, 1, 1, 1, 1, 1),
              CUDA_ERROR_INVALID_VALUE);

    // A rejected launch is not a device fault: nothing sticks.
    EXPECT_EQ(cuCtxSynchronize(), CUDA_SUCCESS);
    EXPECT_EQ(launch(1, 1, 1, 1024, 1, 1), CUDA_SUCCESS);
}

TEST_F(FaultDriverTest, ErrorStringsCoverTrapResults)
{
    initCtx(kEngineMatrix[0]);
    const char *s = nullptr;
    ASSERT_EQ(cuGetErrorString(CUDA_SUCCESS, &s), CUDA_SUCCESS);
    EXPECT_STREQ(s, "no error");
    for (CUresult r : {CUDA_ERROR_ILLEGAL_ADDRESS,
                       CUDA_ERROR_LAUNCH_TIMEOUT,
                       CUDA_ERROR_ILLEGAL_INSTRUCTION,
                       CUDA_ERROR_LAUNCH_FAILED,
                       CUDA_ERROR_INVALID_VALUE}) {
        s = nullptr;
        ASSERT_EQ(cuGetErrorString(r, &s), CUDA_SUCCESS);
        ASSERT_NE(s, nullptr);
        EXPECT_GT(std::string(s).size(), 4u);
    }
    s = nullptr;
    EXPECT_EQ(cuGetErrorString(static_cast<CUresult>(12345), &s),
              CUDA_ERROR_INVALID_VALUE);
    EXPECT_EQ(s, nullptr);
    EXPECT_EQ(cuGetErrorString(CUDA_SUCCESS, nullptr),
              CUDA_ERROR_INVALID_VALUE);
}

// ---------------------------------------------------------------------
// 3. Fault attribution under instrumentation
// ---------------------------------------------------------------------

const char *kSpyPtx = R"(
.global .u64 spy_cnt;
.func nice_probe()
{
    .reg .u64 %rd<5>;
    mov.u64 %rd1, spy_cnt;
    mov.u64 %rd2, 1;
    atom.global.add.u64 %rd3, [%rd1], %rd2;
    ret;
}
.func bad_probe()
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<3>;
    mov.u64 %rd1, 64;
    mov.u32 %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}
)";

/** Instruments one instruction and captures nvbit_at_exception. */
class ExcSpyTool : public tools::LaunchInstrumentingTool
{
  public:
    enum class Probe { NiceOnFirst, NiceOnStore, BadOnFirst };

    explicit ExcSpyTool(Probe probe) : probe_(probe)
    {
        exportDeviceFunctions(kSpyPtx);
    }

    bool fired = false;
    CUexceptionInfo info;

    void
    nvbit_at_exception(CUcontext, const CUexceptionInfo &i) override
    {
        fired = true;
        info = i;
    }

  protected:
    void
    instrumentFunction(CUcontext ctx, CUfunction f) override
    {
        const auto &instrs = nvbit_get_instrs(ctx, f);
        if (instrs.empty())
            return;
        const Instr *target = instrs.front();
        if (probe_ == Probe::NiceOnStore) {
            for (const Instr *i : instrs) {
                if (std::string(i->getOpcode()).rfind("STG", 0) == 0) {
                    target = i;
                    break;
                }
            }
        }
        nvbit_insert_call(target,
                          probe_ == Probe::BadOnFirst ? "bad_probe"
                                                      : "nice_probe",
                          IPOINT_BEFORE);
    }

  private:
    Probe probe_;
};

class AttributionTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetDriver(); }
    void TearDown() override { resetDriver(); }

    /** Launches the OOB-store kernel under @p tool; returns status. */
    static CUresult
    launchOob(uint32_t grid)
    {
        checkCu(cuInit(0), "init");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, kOobStorePtx, 0), "load");
        CUfunction fn = nullptr;
        checkCu(cuModuleGetFunction(&fn, mod, "oobk"), "get");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 8), "alloc");
        uint32_t stride = kOobStride;
        void *params[] = {&out, &stride};
        return cuLaunchKernel(fn, grid, 1, 1, 1, 1, 1, 0, nullptr,
                              params, nullptr);
    }
};

TEST_F(AttributionTest, AppFaultOutsideTrampolineIsAppOrigin)
{
    // The first instruction is instrumented; the faulting store is not,
    // so the fault pc lies in swapped app code.
    ExcSpyTool tool(ExcSpyTool::Probe::NiceOnFirst);
    CUresult status = CUDA_SUCCESS;
    runApp(tool, [&] { status = launchOob(4); });
    EXPECT_EQ(status, CUDA_ERROR_ILLEGAL_ADDRESS);
    ASSERT_TRUE(tool.fired);
    EXPECT_EQ(tool.info.origin, CU_EXCEPTION_ORIGIN_APP);
    EXPECT_EQ(tool.info.exc.code, TrapCode::OutOfBoundsGlobal);
    EXPECT_EQ(tool.info.app_pc, tool.info.exc.pc);
    EXPECT_EQ(tool.info.func_name, "oobk");
}

TEST_F(AttributionTest, RelocatedOriginalInstructionIsAppOrigin)
{
    // The faulting store itself is instrumented: the trap fires at the
    // relocated original instruction inside the trampoline.  It must be
    // attributed to the app, with app_pc mapped back out of the
    // trampoline to the instrumented instruction.
    ExcSpyTool tool(ExcSpyTool::Probe::NiceOnStore);
    CUresult status = CUDA_SUCCESS;
    runApp(tool, [&] { status = launchOob(4); });
    EXPECT_EQ(status, CUDA_ERROR_ILLEGAL_ADDRESS);
    ASSERT_TRUE(tool.fired);
    EXPECT_EQ(tool.info.origin, CU_EXCEPTION_ORIGIN_APP);
    EXPECT_EQ(tool.info.exc.code, TrapCode::OutOfBoundsGlobal);
    EXPECT_NE(tool.info.app_pc, tool.info.exc.pc);
}

TEST_F(AttributionTest, FaultInsideToolDeviceFunctionIsToolOrigin)
{
    // bad_probe dereferences unmapped page 0: the trap pc lies in the
    // tool module; the app would have run fine (grid 2 is in bounds).
    ExcSpyTool tool(ExcSpyTool::Probe::BadOnFirst);
    CUresult status = CUDA_SUCCESS;
    runApp(tool, [&] { status = launchOob(2); });
    EXPECT_EQ(status, CUDA_ERROR_ILLEGAL_ADDRESS);
    ASSERT_TRUE(tool.fired);
    EXPECT_EQ(tool.info.origin, CU_EXCEPTION_ORIGIN_TOOL);
    EXPECT_EQ(tool.info.exc.code, TrapCode::OutOfBoundsGlobal);
    // app_pc is recovered from the return stack: the trampoline call
    // site, mapped back to the instrumented app instruction.
    EXPECT_NE(tool.info.app_pc, tool.info.exc.pc);
}

// ---------------------------------------------------------------------
// 4. Campaign runner
// ---------------------------------------------------------------------

const char *kCampaignPtx = R"(
.visible .entry ck(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<5>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r3, %r1, %r2, %tid.x;
    ld.param.u32 %r4, [n];
    setp.ge.u32 %p1, %r3, %r4;
    @%p1 bra DONE;
    add.u32 %r5, %r3, 1000;
    ld.param.u64 %rd1, [out];
    mul.wide.u32 %rd2, %r3, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r5;
DONE:
    exit;
}
)";

tools::FaultCampaignRunner::AppResult
campaignApp()
{
    tools::FaultCampaignRunner::AppResult res;
    auto cu = [&res](CUresult r) {
        if (r != CUDA_SUCCESS && res.status == CUDA_SUCCESS)
            res.status = r;
        return r;
    };
    if (cu(cuInit(0)) != CUDA_SUCCESS)
        return res;
    CUcontext ctx = nullptr;
    cu(cuCtxCreate(&ctx, 0, 0));
    CUmodule mod = nullptr;
    if (cu(cuModuleLoadData(&mod, kCampaignPtx, 0)) != CUDA_SUCCESS)
        return res;
    CUfunction fn = nullptr;
    cu(cuModuleGetFunction(&fn, mod, "ck"));
    const uint32_t n = 64;
    CUdeviceptr out = 0;
    cu(cuMemAlloc(&out, n * 4));
    void *params[] = {&out, const_cast<uint32_t *>(&n)};
    cu(cuLaunchKernel(fn, 2, 1, 1, 32, 1, 1, 0, nullptr, params,
                      nullptr));
    res.output.resize(n * 4);
    if (cu(cuMemcpyDtoH(res.output.data(), out, n * 4)) != CUDA_SUCCESS)
        res.output.clear();
    return res;
}

class CampaignTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetDriver(); }
    void TearDown() override { resetDriver(); }
};

TEST_F(CampaignTest, SweepClassifiesEveryInjection)
{
    // 2 IADD sites (the +1000 data add and the 64-bit address add),
    // 4 bits x 4 occurrences = 32 injections.
    tools::FaultCampaignRunner::Config cfg;
    cfg.opcode_prefix = "IADD";
    cfg.bits = {0, 7, 30, 31};
    cfg.occurrences = {0, 1, 2, 3};
    cfg.watchdog_cycles = 500000;
    tools::CampaignReport rep =
        tools::FaultCampaignRunner(cfg).run(campaignApp);

    EXPECT_EQ(rep.sites, 2u);
    ASSERT_EQ(rep.injections.size(), 32u);
    size_t classified = rep.countOf(tools::FaultOutcome::Masked) +
                        rep.countOf(tools::FaultOutcome::SDC) +
                        rep.countOf(tools::FaultOutcome::DUE) +
                        rep.countOf(tools::FaultOutcome::Timeout);
    EXPECT_EQ(classified, rep.injections.size());

    // Flipping low bits of the data add silently corrupts the output;
    // flipping high bits of the address add leaves the allocation.
    EXPECT_GE(rep.countOf(tools::FaultOutcome::SDC), 1u);
    EXPECT_GE(rep.countOf(tools::FaultOutcome::DUE), 1u);

    for (const tools::InjectionResult &r : rep.injections) {
        EXPECT_TRUE(r.injected) << "site " << r.target.site_index;
        EXPECT_FALSE(r.armed_sass.empty());
        if (r.outcome == tools::FaultOutcome::DUE) {
            EXPECT_NE(r.status, CUDA_SUCCESS);
            EXPECT_NE(r.trap_code, TrapCode::None);
            EXPECT_EQ(r.origin, CU_EXCEPTION_ORIGIN_APP);
        }
        if (r.outcome == tools::FaultOutcome::SDC ||
            r.outcome == tools::FaultOutcome::Masked) {
            EXPECT_EQ(r.status, CUDA_SUCCESS);
        }
    }

    std::string json = rep.toJson();
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"injections\""), std::string::npos);
    EXPECT_NE(json.find("\"sdc\""), std::string::npos);
    EXPECT_NE(json.find("IADD"), std::string::npos);
}

TEST_F(CampaignTest, GoldenRunArmsNothing)
{
    tools::FaultCampaignRunner::Config cfg;
    cfg.opcode_prefix = "IADD";
    cfg.bits = {31};
    cfg.occurrences = {0};
    cfg.max_sites = 1;
    tools::CampaignReport rep =
        tools::FaultCampaignRunner(cfg).run(campaignApp);
    EXPECT_EQ(rep.sites, 2u);
    ASSERT_EQ(rep.injections.size(), 1u); // capped by max_sites
}

} // namespace
} // namespace nvbit
