/**
 * @file
 * Tests for the predecoded-image execution pipeline.
 *
 * Three groups:
 *  1. Differential property test: every tier-1 workload runs under all
 *     four engine configurations (tests/engine_matrix.hpp) and must
 *     produce identical device-memory contents and launch statistics.
 *  2. Cache-coherence tests, in every engine configuration: rewriting
 *     code after it has been predecoded (and, traced, compiled) —
 *     through a host write(), a mutableView() patch (the
 *     trampoline-patching and code-swap path), explicit invalidation,
 *     or a checkpoint restore() — drops the affected pages with their
 *     traces, and the next launch re-predecodes and observes the new
 *     bytes (the simulator-level analogue of NVBit's
 *     instrumented-code cache-invalidation protocol).
 *  3. Shard-aggregate test: per-SM statistics shards merged after a
 *     parallel launch equal the serial totals field by field.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "isa/abi.hpp"
#include "sim/checkpoint.hpp"
#include "sim/gpu.hpp"
#include "workloads/workloads.hpp"

namespace nvbit {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::DType;

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

/** Compare every LaunchStats field. */
void
expectStatsEq(const sim::LaunchStats &a, const sim::LaunchStats &b)
{
    EXPECT_EQ(a.thread_instrs, b.thread_instrs);
    EXPECT_EQ(a.warp_instrs, b.warp_instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    for (size_t i = 0; i < a.warp_instrs_by_op.size(); ++i) {
        EXPECT_EQ(a.warp_instrs_by_op[i], b.warp_instrs_by_op[i])
            << "warp_instrs_by_op[" << i << "]";
        EXPECT_EQ(a.thread_instrs_by_op[i], b.thread_instrs_by_op[i])
            << "thread_instrs_by_op[" << i << "]";
    }
    EXPECT_EQ(a.global_mem_warp_instrs, b.global_mem_warp_instrs);
    EXPECT_EQ(a.unique_lines_sum, b.unique_lines_sum);
    EXPECT_EQ(a.l1_hits, b.l1_hits);
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.l2_hits, b.l2_hits);
    EXPECT_EQ(a.l2_misses, b.l2_misses);
    EXPECT_EQ(a.ctas, b.ctas);
    EXPECT_EQ(a.decode_cache_hits, b.decode_cache_hits);
    EXPECT_EQ(a.decode_cache_misses, b.decode_cache_misses);
}

// ---------------------------------------------------------------------
// 1. Workload differential test
// ---------------------------------------------------------------------

struct RunResult {
    uint64_t mem_hash = 0;
    sim::LaunchStats totals;
};

/** Run one tier-1 workload to completion under the given engine
 *  configuration and fingerprint the resulting device state. */
RunResult
runWorkload(bool spec, const std::string &name, const EngineConfig &e)
{
    cudrv::resetDriver();
    sim::GpuConfig cfg;
    e.apply(cfg);
    cudrv::setDeviceConfig(cfg);
    cudrv::checkCu(cudrv::cuInit(0), "init");
    cudrv::CUcontext ctx = nullptr;
    cudrv::checkCu(cudrv::cuCtxCreate(&ctx, 0, 0), "ctx");

    auto wl = spec ? workloads::makeSpecWorkload(name)
                   : workloads::makeMlWorkload(name);
    wl->run(workloads::ProblemSize::Test);

    RunResult r;
    const auto &m = cudrv::device().memory();
    // Page 0 is unmapped; fingerprint everything usable.
    constexpr mem::DevPtr kFirstUsable = 4096;
    auto v = m.view(kFirstUsable, m.size() - kFirstUsable);
    r.mem_hash = fnv1a(v.data(), v.size());
    r.totals = cudrv::deviceTotalStats();
    cudrv::resetDriver();
    return r;
}

class EngineDifferentialTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { clearEngineEnv(); }
    void TearDown() override { cudrv::resetDriver(); }
};

TEST_P(EngineDifferentialTest, AllEngineConfigsAgree)
{
    std::string param = GetParam();
    bool spec = param.rfind("spec_", 0) == 0;
    std::string name = spec ? param.substr(5) : param.substr(3);

    const RunResult base = runWorkload(spec, name, kEngineMatrix[0]);
    for (const EngineConfig &e : std::span(kEngineMatrix).subspan(1)) {
        SCOPED_TRACE(e.name);
        const RunResult r = runWorkload(spec, name, e);
        // Memory contents, architectural and timing stats are
        // bit-identical.  So are the decode-cache counters: each SM's
        // fetch stream is the same in every engine, and the traced
        // engine charges a decode tick per issue slot.
        EXPECT_EQ(base.mem_hash, r.mem_hash);
        expectStatsEq(base.totals, r.totals);
    }

    // Every fetch is classified exactly once, and the cached page
    // serves the overwhelming majority of them.
    EXPECT_EQ(base.totals.decode_cache_hits +
                  base.totals.decode_cache_misses,
              base.totals.warp_instrs);
    EXPECT_GT(base.totals.decode_cache_hits,
              base.totals.decode_cache_misses);
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

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EngineDifferentialTest,
                         ::testing::ValuesIn(allWorkloadParams()));

// ---------------------------------------------------------------------
// 2. Cache-coherence unit tests on a bare device
// ---------------------------------------------------------------------

class PredecodeTest : public ::testing::Test
{
  protected:
    sim::GpuConfig
    smallConfig()
    {
        sim::GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.mem_bytes = 8 << 20;
        return cfg;
    }

    void
    SetUp() override
    {
        clearEngineEnv();
        gpu_ = std::make_unique<sim::GpuDevice>(smallConfig());
    }

    uint64_t
    place(const std::vector<Instruction> &prog)
    {
        auto bytes = isa::encodeAll(gpu_->family(), prog);
        mem::DevPtr p = gpu_->memory().alloc(bytes.size(), 16);
        gpu_->memory().write(p, bytes.data(), bytes.size());
        return p;
    }

    sim::LaunchParams
    oneThread(uint64_t entry)
    {
        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = 1;
        return lp;
    }

    /** MOV R5, value; R6:R7 = buf; STG [R6], R5; EXIT. */
    std::vector<Instruction>
    storeImmProgram(mem::DevPtr buf, int32_t value)
    {
        std::vector<Instruction> prog;
        prog.push_back(isa::makeMovImm(5, value));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeStore(Opcode::STG, 6, 0, 5));
        prog.push_back(isa::makeExit());
        return prog;
    }

    std::unique_ptr<sim::GpuDevice> gpu_;
};

/** The host paths that rewrite code, in every engine configuration. */
class CodeCacheTest
    : public PredecodeTest,
      public ::testing::WithParamInterface<EngineConfig>
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        sim::GpuConfig cfg = smallConfig();
        GetParam().apply(cfg);
        gpu_ = std::make_unique<sim::GpuDevice>(cfg);
    }

    /** The code about to be rewritten has a compiled trace exactly
     *  when the row is traced. */
    void
    expectTraceBuilt()
    {
        EXPECT_EQ(gpu_->codeCache().residentTraces() > 0,
                  GetParam().traces);
    }
};

INSTANTIATE_TEST_SUITE_P(AllEngines, CodeCacheTest,
                         ::testing::ValuesIn(kEngineMatrix),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

TEST_P(CodeCacheTest, HostWriteInvalidatesAndRepredecodes)
{
    mem::DevPtr buf = gpu_->memory().alloc(4);
    uint64_t entry = place(storeImmProgram(buf, 111));

    gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->memory().read32(buf), 111u);
    expectTraceBuilt();
    uint64_t built0 = gpu_->codeCache().pagesBuilt();
    uint64_t inv0 = gpu_->codeCache().invalidations();
    EXPECT_GE(built0, 1u);

    // Patch the first instruction (MOV R5, 111 -> MOV R5, 222) through
    // a host-side write.  The write observer must invalidate the page.
    uint8_t enc[16];
    isa::encode(gpu_->family(), isa::makeMovImm(5, 222), enc);
    gpu_->memory().write(entry, enc, isa::instrBytes(gpu_->family()));
    EXPECT_GT(gpu_->codeCache().invalidations(), inv0);

    gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->memory().read32(buf), 222u);
    EXPECT_GT(gpu_->codeCache().pagesBuilt(), built0);
}

TEST_P(CodeCacheTest, ExplicitInvalidationProtocol)
{
    mem::DevPtr buf = gpu_->memory().alloc(4);
    std::vector<Instruction> prog = storeImmProgram(buf, 7);
    auto bytes = isa::encodeAll(gpu_->family(), prog);
    uint64_t entry = place(prog);

    // Eager predecode (the driver does this at module load).
    gpu_->predecodeRange(entry, bytes.size());
    EXPECT_GE(gpu_->codeCache().residentPages(), 1u);
    uint64_t built0 = gpu_->codeCache().pagesBuilt();

    // A launch over a prewarmed image builds no new pages.
    sim::LaunchStats st = gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->codeCache().pagesBuilt(), built0);
    EXPECT_EQ(gpu_->memory().read32(buf), 7u);
    EXPECT_EQ(st.decode_cache_hits + st.decode_cache_misses,
              st.warp_instrs);
    expectTraceBuilt();

    // Explicit range invalidation (the NVBit patching path).
    uint64_t inv0 = gpu_->codeCache().invalidations();
    gpu_->invalidateCodeRange(entry, bytes.size());
    EXPECT_GT(gpu_->codeCache().invalidations(), inv0);

    // Full flush drops everything resident.
    gpu_->predecodeRange(entry, bytes.size());
    EXPECT_GE(gpu_->codeCache().residentPages(), 1u);
    gpu_->invalidateCaches();
    EXPECT_EQ(gpu_->codeCache().residentPages(), 0u);
    EXPECT_EQ(gpu_->codeCache().residentTraces(), 0u);

    // Still executes correctly after a full flush (lazy rebuild).
    gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->memory().read32(buf), 7u);
}

TEST_P(CodeCacheTest, MutableViewPatchInvalidatesAndRepredecodes)
{
    // The NVBit core rewrites code in place through mutableView()
    // (jump-to-trampoline patching, code swapping); the view must drop
    // the predecoded page it hands out for writing.
    mem::DevPtr buf = gpu_->memory().alloc(4);
    uint64_t entry = place(storeImmProgram(buf, 111));
    gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->memory().read32(buf), 111u);
    expectTraceBuilt();

    auto code = gpu_->memory().mutableView(
        entry, isa::instrBytes(gpu_->family()));
    isa::encode(gpu_->family(), isa::makeMovImm(5, 222), code.data());

    gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->memory().read32(buf), 222u);
}

TEST_P(CodeCacheTest, RestoreInvalidatesPredecodedCode)
{
    // DeviceMemory::restore() bypasses the write observer, so
    // GpuDevice::restore() must flush the code cache itself.
    mem::DevPtr buf = gpu_->memory().alloc(4);
    uint64_t entry = place(storeImmProgram(buf, 111));
    const sim::GpuState before = gpu_->snapshot();

    uint8_t enc[16];
    isa::encode(gpu_->family(), isa::makeMovImm(5, 222), enc);
    gpu_->memory().write(entry, enc, isa::instrBytes(gpu_->family()));
    gpu_->launch(oneThread(entry)); // predecodes the patched page
    EXPECT_EQ(gpu_->memory().read32(buf), 222u);
    expectTraceBuilt();

    gpu_->restore(before);
    gpu_->launch(oneThread(entry));
    EXPECT_EQ(gpu_->memory().read32(buf), 111u);
}

TEST_F(PredecodeTest, EnvOverridesControlEngine)
{
    setenv("NVBIT_SIM_EXEC", "serial", 1);
    setenv("NVBIT_SIM_TRACES", "1", 1);
    sim::GpuDevice gpu(smallConfig());
    EXPECT_EQ(gpu.config().exec_mode, sim::ExecMode::Serial);
    EXPECT_TRUE(gpu.config().use_traces);
    clearEngineEnv();

    sim::GpuDevice dflt(smallConfig());
    EXPECT_EQ(dflt.config().exec_mode, sim::ExecMode::Parallel);
    EXPECT_FALSE(dflt.config().use_traces);
}

// ---------------------------------------------------------------------
// 3. Shard aggregation: parallel totals == serial totals
// ---------------------------------------------------------------------

TEST_F(PredecodeTest, ParallelShardsAggregateToSerialTotals)
{
    auto run = [&](sim::ExecMode mode) {
        sim::GpuConfig cfg = smallConfig();
        cfg.exec_mode = mode;
        auto gpu = std::make_unique<sim::GpuDevice>(cfg);

        mem::DevPtr counter = gpu->memory().alloc(4);
        gpu->memory().write32(counter, 0);
        mem::DevPtr buf = gpu->memory().alloc(64 * 4);

        // Per-lane store with IMAD.WIDE addressing plus a grid-wide
        // atomic increment: exercises caches, divergence accounting,
        // and the atomic serialisation gate across 10 CTAs.
        std::vector<Instruction> prog;
        prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeMovImm(10, 4));
        Instruction mad;
        mad.op = Opcode::IMAD;
        mad.mod = isa::modSetDType(0, DType::U64);
        mad.rd = 8;
        mad.ra = 4;
        mad.rb = 10;
        mad.rc = 6;
        prog.push_back(mad);
        prog.push_back(isa::makeStore(Opcode::STG, 8, 0, 4));
        isa::emitMaterialize32(prog, 12, static_cast<uint32_t>(counter));
        isa::emitMaterialize32(prog, 13,
                               static_cast<uint32_t>(counter >> 32));
        prog.push_back(isa::makeMovImm(14, 1));
        Instruction atom;
        atom.op = Opcode::ATOM;
        atom.mod = isa::modSetAtomDType(
            isa::modSetAtomOp(0, isa::AtomOp::ADD), DType::U32);
        atom.rd = isa::kRegZ;
        atom.ra = 12;
        atom.rb = 14;
        prog.push_back(atom);
        prog.push_back(isa::makeExit());

        auto bytes = isa::encodeAll(gpu->family(), prog);
        mem::DevPtr entry = gpu->memory().alloc(bytes.size(), 16);
        gpu->memory().write(entry, bytes.data(), bytes.size());

        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.grid[0] = 10;
        lp.block[0] = 64;
        sim::LaunchStats st = gpu->launch(lp);
        EXPECT_EQ(gpu->memory().read32(counter), 640u);
        return st;
    };

    sim::LaunchStats serial = run(sim::ExecMode::Serial);
    sim::LaunchStats parallel = run(sim::ExecMode::Parallel);
    expectStatsEq(serial, parallel);
    EXPECT_EQ(serial.ctas, 10u);
}

} // namespace
} // namespace nvbit
