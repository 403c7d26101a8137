/**
 * @file
 * Tests for the trace-compiled threaded-code execution engine.
 *
 * Four groups:
 *  1. Code-cache trace unit tests: superblock compilation, the
 *     negative ("not worthwhile") sentinel, and pointer stability.
 *  2. Invalidation protocol: code swaps (the simulator-level analogue
 *     of nvbit_insert_call re-instrumentation) and probe-registry
 *     changes retire compiled traces; the registry empties on module
 *     unload.
 *  3. Traced-engine differentials on adversarial shapes: superblocks
 *     longer than the scheduler quantum (side-exit and resume) and
 *     warps that diverge at the trace terminal.
 *  4. Probe inlining vs trampoline equivalence through the full NVBit
 *     stack: identical tool counters with traces on and off.
 *  5. The shared op table: every op gives the same result in a strip
 *     run and in the interpreter, over an edge-value corpus.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "isa/abi.hpp"
#include "sim/gpu.hpp"
#include "sim/predecode.hpp"
#include "tools/instr_count.hpp"

namespace nvbit {
namespace {

using isa::Instruction;
using isa::Opcode;

class TraceTestBase : public ::testing::Test
{
  protected:
    void SetUp() override { clearEngineEnv(); }
    void TearDown() override { cudrv::resetDriver(); }

    sim::GpuConfig
    smallConfig(bool traces)
    {
        sim::GpuConfig cfg;
        cfg.num_sms = 2;
        cfg.mem_bytes = 8 << 20;
        cfg.use_traces = traces;
        return cfg;
    }

    uint64_t
    place(sim::GpuDevice &gpu, const std::vector<Instruction> &prog)
    {
        auto bytes = isa::encodeAll(gpu.family(), prog);
        mem::DevPtr p = gpu.memory().alloc(bytes.size(), 16);
        gpu.memory().write(p, bytes.data(), bytes.size());
        return p;
    }

    /** n IADDs accumulating into R4, then STG the sum and EXIT. */
    std::vector<Instruction>
    accumulateProgram(mem::DevPtr buf, unsigned n)
    {
        std::vector<Instruction> prog;
        prog.push_back(isa::makeMovImm(4, 0));
        for (unsigned i = 0; i < n; ++i)
            prog.push_back(isa::makeIAddImm(4, 4, 1));
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7,
                               static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeStore(Opcode::STG, 6, 0, 4));
        prog.push_back(isa::makeExit());
        return prog;
    }

    sim::LaunchParams
    oneWarp(uint64_t entry)
    {
        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = 32;
        return lp;
    }
};

// ---------------------------------------------------------------------
// 1. Trace compilation in the code cache
// ---------------------------------------------------------------------

class TraceCacheTest : public TraceTestBase
{};

TEST_F(TraceCacheTest, CompilesSuperblockAndCachesNegativeResult)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    std::vector<Instruction> prog = accumulateProgram(buf, 16);
    uint64_t entry = place(gpu, prog);
    const size_t ib = isa::instrBytes(gpu.family());

    sim::CodeCache cache(gpu.memory(), gpu.family());
    const sim::PredecodedImage *page = cache.acquire(entry);
    ASSERT_NE(page, nullptr);
    const sim::Trace *tr = cache.trace(*page, entry);
    ASSERT_NE(tr, nullptr);
    EXPECT_EQ(tr->entry_pc, entry);
    EXPECT_GE(tr->n_instrs, 16u);
    EXPECT_EQ(cache.tracesBuilt(), 1u);
    EXPECT_EQ(cache.residentTraces(), 1u);

    // A second request is a cache hit on the same object.
    EXPECT_EQ(cache.trace(*page, entry), tr);
    EXPECT_EQ(cache.tracesBuilt(), 1u);

    // A lone terminal cannot form a worthwhile trace; the negative
    // result is cached (no recompile attempt on re-touch).
    uint64_t exit_pc = entry + (prog.size() - 1) * ib;
    const sim::PredecodedImage *exit_page = cache.acquire(exit_pc);
    ASSERT_NE(exit_page, nullptr);
    EXPECT_EQ(cache.trace(*exit_page, exit_pc), nullptr);
    EXPECT_EQ(cache.trace(*exit_page, exit_pc), nullptr);
    EXPECT_EQ(cache.tracesBuilt(), 1u);
}

TEST_F(TraceCacheTest, TracedLaunchPopulatesDeviceCache)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    uint64_t entry = place(gpu, accumulateProgram(buf, 16));

    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 16u);
    EXPECT_GE(gpu.codeCache().tracesBuilt(), 1u);
    EXPECT_GE(gpu.codeCache().residentTraces(), 1u);
}

TEST_F(TraceCacheTest, ParallelSmsShareOneCompiledTrace)
{
    // Every CTA enters the same superblock: the SMs running them in
    // parallel compile it once and read its page's trace slots
    // lock-free (the access ThreadSanitizer watches under -L trace).
    sim::GpuDevice gpu(smallConfig(true));
    ASSERT_EQ(gpu.config().exec_mode, sim::ExecMode::Parallel);
    constexpr unsigned kCtas = 16;
    mem::DevPtr buf = gpu.memory().alloc(4 * kCtas);

    // R4 = 16, stored to buf[ctaid.x] so no two CTAs share a word.
    std::vector<Instruction> prog;
    prog.push_back(isa::makeMovImm(4, 0));
    for (unsigned i = 0; i < 16; ++i)
        prog.push_back(isa::makeIAddImm(4, 4, 1));
    prog.push_back(isa::makeS2R(8, isa::SpecialReg::CTAID_X));
    prog.push_back(isa::makeMovImm(10, 4));
    isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
    Instruction mad;
    mad.op = Opcode::IMAD;
    mad.mod = isa::modSetDType(0, isa::DType::U64);
    mad.rd = 6;
    mad.ra = 8;
    mad.rb = 10;
    mad.rc = 6;
    prog.push_back(mad);
    prog.push_back(isa::makeStore(Opcode::STG, 6, 0, 4));
    prog.push_back(isa::makeExit());
    auto bytes = isa::encodeAll(gpu.family(), prog);
    // Page-aligned, so the whole kernel is one superblock.
    mem::DevPtr entry = gpu.memory().alloc(bytes.size(), 4096);
    gpu.memory().write(entry, bytes.data(), bytes.size());

    sim::LaunchParams lp = oneWarp(entry);
    lp.grid[0] = kCtas;
    gpu.launch(lp);
    for (unsigned c = 0; c < kCtas; ++c)
        EXPECT_EQ(gpu.memory().read32(buf + 4 * c), 16u) << "CTA " << c;
    EXPECT_EQ(gpu.codeCache().tracesBuilt(), 1u);
}

// ---------------------------------------------------------------------
// 2. Invalidation protocol
// ---------------------------------------------------------------------

TEST_F(TraceCacheTest, CodeSwapInvalidatesCompiledTraces)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    uint64_t entry = place(gpu, accumulateProgram(buf, 8));

    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);
    uint64_t inv0 = gpu.codeCache().invalidations();

    // Swap the first instruction (MOV R4, 0 -> MOV R4, 100): the exact
    // write path nvbit_insert_call's trampoline patching uses.  The
    // write observer must retire the covering trace page.
    uint8_t enc[16];
    isa::encode(gpu.family(), isa::makeMovImm(4, 100), enc);
    gpu.memory().write(entry, enc, isa::instrBytes(gpu.family()));
    EXPECT_GT(gpu.codeCache().invalidations(), inv0);

    // The relaunch recompiles and observes the new code.
    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 108u);
}

TEST_F(TraceCacheTest, ProbeRegistryChangesRetireCoveringTraces)
{
    sim::GpuDevice gpu(smallConfig(true));
    mem::DevPtr buf = gpu.memory().alloc(4);
    mem::DevPtr counter = gpu.memory().alloc(8);
    gpu.memory().write32(counter, 0);
    gpu.memory().write32(counter + 4, 0);

    // Program with a probe-shaped callsite: the IADD at slot 2 is
    // displaced into a fake trampoline and its callsite patched to a
    // JMP, exactly as the core's generate() does.
    std::vector<Instruction> prog = accumulateProgram(buf, 8);
    const size_t ib = isa::instrBytes(gpu.family());
    uint64_t entry = place(gpu, prog);
    uint64_t callsite = entry + 2 * ib;

    // Fake trampoline: the displaced IADD, then JMP back.
    std::vector<Instruction> tramp;
    tramp.push_back(isa::makeIAddImm(4, 4, 1));
    tramp.push_back(isa::makeJmpAbs(callsite + ib));
    auto tb = isa::encodeAll(gpu.family(), tramp);
    mem::DevPtr tramp_base =
        gpu.memory().alloc(tb.size(), isa::kJmpScale);
    gpu.memory().write(tramp_base, tb.data(), tb.size());

    uint8_t enc[16];
    isa::encode(gpu.family(), isa::makeJmpAbs(tramp_base), enc);
    gpu.memory().write(callsite, enc, ib);

    // Baseline traced run through the trampoline.
    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);

    // Registering an inline probe at the callsite retires the page of
    // covering traces so they recompile inlined.
    uint64_t inv0 = gpu.codeCache().invalidations();
    sim::InlineProbe p;
    p.jmp_pc = callsite;
    p.tramp_target = tramp_base;
    p.orig = isa::makeIAddImm(4, 4, 1);
    p.warp_counter = counter;
    gpu.registerInlineProbe(p);
    EXPECT_GT(gpu.codeCache().invalidations(), inv0);
    EXPECT_EQ(gpu.codeCache().probeCount(), 1u);

    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);
    // The warp counter advanced once per launch through the inlined
    // probe body.
    EXPECT_EQ(gpu.memory().read32(counter), 1u);

    // Module unload / re-instrumentation clears the registry.
    uint64_t inv1 = gpu.codeCache().invalidations();
    gpu.clearInlineProbes(entry, prog.size() * ib);
    EXPECT_EQ(gpu.codeCache().probeCount(), 0u);
    EXPECT_GT(gpu.codeCache().invalidations(), inv1);

    // Back through the trampoline; results unchanged, counter frozen.
    gpu.launch(oneWarp(entry));
    EXPECT_EQ(gpu.memory().read32(buf), 8u);
    EXPECT_EQ(gpu.memory().read32(counter), 1u);
}

// ---------------------------------------------------------------------
// 3. Traced-engine differentials on adversarial control shapes
// ---------------------------------------------------------------------

class TracedEngineTest : public TraceTestBase
{
  protected:
    struct RunOut {
        uint32_t result = 0;
        sim::LaunchStats stats;
    };

    RunOut
    runBoth(const std::vector<Instruction> &prog_tail, bool traces,
            uint32_t block = 32)
    {
        sim::GpuDevice gpu(smallConfig(traces));
        mem::DevPtr buf = gpu.memory().alloc(4 * 64);
        std::vector<Instruction> prog;
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7,
                               static_cast<uint32_t>(buf >> 32));
        prog.insert(prog.end(), prog_tail.begin(), prog_tail.end());
        uint64_t entry = place(gpu, prog);
        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = block;
        RunOut out;
        out.stats = gpu.launch(lp);
        out.result = gpu.memory().read32(buf);
        return out;
    }

    void
    expectIdentical(const RunOut &a, const RunOut &b)
    {
        EXPECT_EQ(a.result, b.result);
        EXPECT_EQ(a.stats.thread_instrs, b.stats.thread_instrs);
        EXPECT_EQ(a.stats.warp_instrs, b.stats.warp_instrs);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        EXPECT_EQ(a.stats.decode_cache_hits, b.stats.decode_cache_hits);
        EXPECT_EQ(a.stats.decode_cache_misses,
                  b.stats.decode_cache_misses);
        for (size_t i = 0; i < a.stats.cycles_by_reason.size(); ++i)
            EXPECT_EQ(a.stats.cycles_by_reason[i],
                      b.stats.cycles_by_reason[i])
                << "cycles_by_reason[" << i << "]";
    }
};

TEST_F(TracedEngineTest, SideExitResumesAfterQuantumExhaustion)
{
    // 200 straight-line IADDs: longer than the scheduler quantum, so
    // the traced engine must side-exit mid-trace on budget exhaustion,
    // flush the deferred PC advance, and resume exactly where the
    // per-instruction engine would.
    std::vector<Instruction> tail;
    tail.push_back(isa::makeMovImm(4, 0));
    for (int i = 0; i < 200; ++i)
        tail.push_back(isa::makeIAddImm(4, 4, 1));
    tail.push_back(isa::makeStore(Opcode::STG, 6, 0, 4));
    tail.push_back(isa::makeExit());

    RunOut base = runBoth(tail, false);
    RunOut traced = runBoth(tail, true);
    EXPECT_EQ(traced.result, 200u);
    expectIdentical(base, traced);
}

TEST_F(TracedEngineTest, DivergentTerminalRewindsBitIdentically)
{
    // Lanes diverge at the trace's terminal branch (odd lanes take
    // it), re-execute the tail region divergently, and reconverge at
    // the store.  Traced and per-instruction engines must agree on
    // results, cycle totals, and the full stall breakdown.
    const size_t ib = isa::instrBytes(isa::ArchFamily::SM7x);
    std::vector<Instruction> tail;
    tail.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    tail.push_back(isa::makeMovImm(5, 0));
    for (int i = 0; i < 6; ++i)
        tail.push_back(isa::makeIAddImm(5, 5, 1));
    Instruction setp; // P0 = (laneid & 1) != 0 via ISETP on R4
    setp.op = Opcode::ISETP;
    setp.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::GT),
        isa::DType::U32);
    setp.rd = 0;
    setp.ra = 4;
    setp.imm = 15; // lanes 16..31 take the branch
    tail.push_back(setp);
    // Taken lanes skip one extra IADD.
    tail.push_back(isa::makeBra(static_cast<int64_t>(ib), 0, false));
    tail.push_back(isa::makeIAddImm(5, 5, 100));
    tail.push_back(isa::makeStore(Opcode::STG, 6, 0, 5));
    tail.push_back(isa::makeExit());

    RunOut base = runBoth(tail, false);
    RunOut traced = runBoth(tail, true);
    expectIdentical(base, traced);
}

// ---------------------------------------------------------------------
// 4. Probe inlining vs trampoline through the full stack
// ---------------------------------------------------------------------

class ProbeInlineTest : public TraceTestBase
{};

TEST_F(ProbeInlineTest, InlineCountsMatchTrampolineCounts)
{
    const char *kKernel = R"(
.visible .entry accum(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %tid.x;
    ld.param.u32 %r2, [n];
    mov.u32 %r3, 0;
LOOP:
    add.u32 %r3, %r3, %r1;
    sub.u32 %r2, %r2, 1;
    setp.gt.u32 %p1, %r2, 0;
    @%p1 bra LOOP;
    ld.param.u64 %rd1, [out];
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r3;
    exit;
}
)";
    auto app = [&] {
        using namespace cudrv;
        checkCu(cuInit(0), "init");
        CUcontext ctx;
        checkCu(cuCtxCreate(&ctx, 0, 0), "ctx");
        CUmodule mod;
        checkCu(cuModuleLoadData(&mod, kKernel, 0), "load");
        CUfunction fn;
        checkCu(cuModuleGetFunction(&fn, mod, "accum"), "get");
        CUdeviceptr out;
        checkCu(cuMemAlloc(&out, 64 * 4), "alloc");
        uint32_t n = 40;
        void *params[] = {&out, &n};
        checkCu(cuLaunchKernel(fn, 1, 1, 1, 64, 1, 1, 0, nullptr,
                               params, nullptr),
                "launch");
    };

    auto countsWith = [&](const char *traces, bool per_bb) {
        setenv("NVBIT_SIM_TRACES", traces, 1);
        cudrv::resetDriver();
        tools::InstrCountTool tool(
            per_bb ? tools::InstrCountTool::Mode::PerBasicBlock
                   : tools::InstrCountTool::Mode::PerInstruction);
        uint64_t threads = 0, warps = 0;
        runApp(tool, [&] {
            app();
            threads = tool.threadInstrs();
            warps = tool.warpInstrs();
        });
        unsetenv("NVBIT_SIM_TRACES");
        cudrv::resetDriver();
        return std::pair<uint64_t, uint64_t>{threads, warps};
    };

    for (bool per_bb : {false, true}) {
        SCOPED_TRACE(per_bb ? "per-basic-block" : "per-instruction");
        auto tramp = countsWith("0", per_bb);
        auto inlined = countsWith("1", per_bb);
        EXPECT_GT(tramp.first, 0u);
        EXPECT_EQ(tramp.first, inlined.first) << "thread-level count";
        EXPECT_EQ(tramp.second, inlined.second) << "warp-level count";
    }
}

// ---------------------------------------------------------------------
// 5. The shared op table: strip runs vs the interpreter
// ---------------------------------------------------------------------

/**
 * One-warp kernels: each lane loads a (R1), b (R2) and c (R3) from an
 * edge-value corpus, runs one group of table ops (every op in its
 * register, immediate, RZ-source and RZ-destination forms, and the
 * predicate forms of SETP, SEL, P2R and R2P), then stores every result
 * register and its predicate byte.  Traced, the group is one strip
 * run; untraced, the interpreter runs it.  Eight launches give every
 * (a, b) pair of the corpus.
 */
class LaneOpTableTest : public TraceTestBase
{
  protected:
    static constexpr uint8_t kA = 1, kB = 2, kC = 3, kFirstRes = 16;
    static constexpr unsigned kRounds = 8;

    struct Group {
        const char *name;
        std::vector<Instruction> ops;
        uint8_t next = kFirstRes; ///< next free result register
        uint8_t res() { return next++; }
    };

    /** The corpus: integer edges, then float edges as their bits. */
    static std::vector<uint32_t>
    corpus()
    {
        using sim::asBits;
        const float inf = std::numeric_limits<float>::infinity();
        return {0, 1, 31, 32, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
                asBits(0.0f), asBits(-0.0f), asBits(-1.5f), asBits(3e9f),
                asBits(-3e9f),
                asBits(std::numeric_limits<float>::quiet_NaN()),
                asBits(inf), asBits(-inf)};
    }

    /** A 32-bit corpus value as a sign-extended immediate. */
    static int64_t
    immOf(uint32_t v)
    {
        return static_cast<int32_t>(v);
    }

    static Instruction
    op(Opcode o, uint8_t rd, uint8_t ra, uint8_t rb = 0, uint8_t rc = 0,
       uint8_t mod = 0)
    {
        Instruction in;
        in.op = o;
        in.rd = rd;
        in.ra = ra;
        in.rb = rb;
        in.rc = rc;
        in.mod = mod;
        return in;
    }

    static Instruction
    opImm(Opcode o, uint8_t rd, uint8_t ra, int64_t imm, uint8_t mod)
    {
        Instruction in = op(o, rd, ra, 0, 0, mod);
        in.imm = imm;
        return in;
    }

    /** Rd = Ra op Rb|imm: register, immediate, RZ-source and
     *  RZ-destination forms. */
    static void
    binary(Group &g, Opcode o, uint32_t imm, uint8_t mod = 0)
    {
        g.ops.push_back(op(o, g.res(), kA, kB, 0, mod));
        g.ops.push_back(
            opImm(o, g.res(), kA, immOf(imm), mod | isa::kModImmSrc2));
        g.ops.push_back(op(o, g.res(), isa::kRegZ, kB, 0, mod));
        g.ops.push_back(op(o, g.res(), kA, isa::kRegZ, 0, mod));
        g.ops.push_back(op(o, isa::kRegZ, kA, kB, 0, mod));
    }

    static void
    unary(Group &g, Opcode o, uint8_t mod = 0)
    {
        g.ops.push_back(op(o, g.res(), kA, 0, 0, mod));
        g.ops.push_back(op(o, g.res(), kB, 0, 0, mod));
        g.ops.push_back(op(o, g.res(), isa::kRegZ, 0, 0, mod));
        g.ops.push_back(op(o, isa::kRegZ, kA, 0, 0, mod));
    }

    static void
    ternary(Group &g, Opcode o)
    {
        g.ops.push_back(op(o, g.res(), kA, kB, kC));
        g.ops.push_back(op(o, g.res(), isa::kRegZ, kB, kC));
        g.ops.push_back(op(o, g.res(), kA, isa::kRegZ, kC));
        g.ops.push_back(op(o, g.res(), kA, kB, isa::kRegZ));
        g.ops.push_back(op(o, isa::kRegZ, kA, kB, kC));
    }

    /** Every compare in register, immediate and RZ-source forms into
     *  P0..P6 (captured by P2R whenever all seven are written), plus
     *  one PT destination each. */
    static void
    setp(Group &g, Opcode o, isa::DType dt, int64_t imm)
    {
        uint8_t p = 0;
        auto push = [&](Instruction in) {
            g.ops.push_back(in);
            if (in.rd != isa::kPredT && ++p == isa::kPredT) {
                g.ops.push_back(isa::makeP2R(g.res()));
                p = 0;
            }
        };
        for (isa::CmpOp c :
             {isa::CmpOp::LT, isa::CmpOp::EQ, isa::CmpOp::LE,
              isa::CmpOp::GT, isa::CmpOp::NE, isa::CmpOp::GE}) {
            const uint8_t mod =
                isa::modSetSetpDType(isa::modSetCmp(0, c), dt);
            push(op(o, p, kA, kB, 0, mod));
            push(opImm(o, p, kA, imm, mod | isa::kModSetpImm));
            push(op(o, p, isa::kRegZ, kB, 0, mod));
            push(op(o, isa::kPredT, kA, kB, 0, mod));
        }
        g.ops.push_back(isa::makeP2R(g.res()));
    }

    static std::vector<Group>
    groups()
    {
        using isa::DType;
        std::vector<Group> v;
        auto add = [&](const char *name) -> Group & {
            v.push_back(Group{name, {}});
            return v.back();
        };
        {
            Group &g = add("MOV/LUI");
            g.ops.push_back(op(Opcode::MOV, g.res(), kA));
            g.ops.push_back(opImm(Opcode::MOV, g.res(), 0,
                                  immOf(0x80000000u), isa::kModImmSrc2));
            g.ops.push_back(op(Opcode::MOV, g.res(), isa::kRegZ));
            g.ops.push_back(op(Opcode::MOV, isa::kRegZ, kA));
            g.ops.push_back(isa::makeLui(g.res(), 0xBEEF));
            g.ops.push_back(isa::makeLui(isa::kRegZ, 0x8000));
        }
        binary(add("IADD"), Opcode::IADD, 0xFFFFFFFFu);
        binary(add("ISUB"), Opcode::ISUB, 0x7FFFFFFFu);
        binary(add("IMUL"), Opcode::IMUL, 0x80000000u);
        binary(add("AND"), Opcode::AND, 0x80000000u);
        binary(add("OR"), Opcode::OR, 31);
        binary(add("XOR"), Opcode::XOR, 0xFFFFFFFFu);
        binary(add("SHL"), Opcode::SHL, 31);
        {
            Group &g = add("SHR");
            binary(g, Opcode::SHR, 32, isa::modSetDType(0, DType::U32));
            binary(g, Opcode::SHR, 31, isa::modSetDType(0, DType::S32));
        }
        {
            Group &g = add("IMNMX");
            for (DType dt : {DType::U32, DType::S32})
                for (uint8_t max : {uint8_t{0}, isa::kModMnmxMax})
                    binary(g, Opcode::IMNMX, 0xFFFFFFFFu,
                           isa::modSetDType(max, dt));
        }
        binary(add("FADD"), Opcode::FADD, sim::asBits(-1.5f));
        binary(add("FMUL"), Opcode::FMUL,
               sim::asBits(std::numeric_limits<float>::infinity()));
        {
            Group &g = add("FMNMX");
            for (uint8_t max : {uint8_t{0}, isa::kModMnmxMax})
                binary(g, Opcode::FMNMX,
                       sim::asBits(std::numeric_limits<float>::quiet_NaN()),
                       max);
        }
        ternary(add("IMAD"), Opcode::IMAD);
        ternary(add("FFMA"), Opcode::FFMA);
        unary(add("NOT"), Opcode::NOT);
        unary(add("POPC"), Opcode::POPC);
        {
            Group &g = add("MUFU");
            for (isa::MufuOp f :
                 {isa::MufuOp::RCP, isa::MufuOp::SQRT, isa::MufuOp::RSQ,
                  isa::MufuOp::EX2, isa::MufuOp::LG2, isa::MufuOp::SIN,
                  isa::MufuOp::COS})
                unary(g, Opcode::MUFU, isa::modSetMufu(0, f));
        }
        {
            Group &g = add("I2F/F2I");
            for (DType dt : {DType::U32, DType::S32}) {
                unary(g, Opcode::I2F, isa::modSetDType(0, dt));
                unary(g, Opcode::F2I, isa::modSetDType(0, dt));
            }
        }
        {
            Group &g = add("ISETP");
            setp(g, Opcode::ISETP, DType::U32, immOf(0x80000000u));
            setp(g, Opcode::ISETP, DType::S32, -1);
        }
        setp(add("FSETP"), Opcode::FSETP, DType::U32, 3000000000ll);
        {
            Group &g = add("SEL");
            g.ops.push_back(isa::makeR2P(kA));
            for (uint8_t p = 0; p <= isa::kPredT; ++p)
                for (bool neg : {false, true})
                    g.ops.push_back(op(Opcode::SEL, g.res(), kA, kB, 0,
                                       isa::modSetSelPred(0, p, neg)));
            g.ops.push_back(op(Opcode::SEL, g.res(), isa::kRegZ, kB, 0,
                               isa::modSetSelPred(0, 0, false)));
            g.ops.push_back(op(Opcode::SEL, g.res(), kA, isa::kRegZ, 0,
                               isa::modSetSelPred(0, 1, true)));
            g.ops.push_back(op(Opcode::SEL, isa::kRegZ, kA, kB, 0,
                               isa::modSetSelPred(0, 2, false)));
        }
        {
            Group &g = add("P2R/R2P");
            g.ops.push_back(isa::makeP2R(g.res()));
            g.ops.push_back(isa::makeR2P(kB));
            g.ops.push_back(isa::makeP2R(g.res()));
            g.ops.push_back(isa::makeR2P(isa::kRegZ));
            g.ops.push_back(isa::makeP2R(g.res()));
            g.ops.push_back(isa::makeR2P(kA));
            g.ops.push_back(isa::makeP2R(isa::kRegZ));
            g.ops.push_back(isa::makeP2R(g.res()));
        }
        return v;
    }

    struct Run {
        std::vector<uint8_t> out; ///< every round's stored results
        size_t strip_ops = 0;     ///< strip ops over the group's pcs
    };

    /** Run @p g for every round; results and the predicate byte of
     *  each lane go to out[1 + i] and out[0]. */
    Run
    runGroup(const Group &g, bool traces)
    {
        sim::GpuConfig cfg = smallConfig(traces);
        cfg.family = isa::ArchFamily::SM7x; // 32-bit immediates
        sim::GpuDevice gpu(cfg);
        const unsigned nres = g.next - kFirstRes;
        mem::DevPtr in_buf = gpu.memory().alloc(3 * 32 * 4);
        mem::DevPtr out_buf = gpu.memory().alloc((1 + nres) * 32 * 4);

        std::vector<Instruction> prog;
        prog.push_back(isa::makeS2R(0, isa::SpecialReg::LANEID));
        prog.push_back(isa::makeMovImm(10, 4));
        auto laneAddr = [&](uint8_t rd, mem::DevPtr base) {
            isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(base));
            isa::emitMaterialize32(prog, 7,
                                   static_cast<uint32_t>(base >> 32));
            prog.push_back(op(Opcode::IMAD, rd, 0, 10, 6,
                              isa::modSetDType(0, isa::DType::U64)));
        };
        laneAddr(8, in_buf);
        prog.push_back(isa::makeLoad(Opcode::LDG, kA, 8, 0));
        prog.push_back(isa::makeLoad(Opcode::LDG, kB, 8, 128));
        prog.push_back(isa::makeLoad(Opcode::LDG, kC, 8, 256));
        laneAddr(12, out_buf);
        const size_t first = prog.size();
        prog.insert(prog.end(), g.ops.begin(), g.ops.end());
        prog.push_back(isa::makeP2R(15));
        const size_t last = prog.size() - 1;
        prog.push_back(isa::makeStore(Opcode::STG, 12, 0, 15));
        for (unsigned i = 0; i < nres; ++i)
            prog.push_back(isa::makeStore(Opcode::STG, 12, (1 + i) * 128,
                                          kFirstRes + i));
        prog.push_back(isa::makeExit());
        // Page-aligned, so the whole kernel is one superblock.
        auto bytes = isa::encodeAll(gpu.family(), prog);
        mem::DevPtr entry = gpu.memory().alloc(bytes.size(), 4096);
        gpu.memory().write(entry, bytes.data(), bytes.size());

        const std::vector<uint32_t> vals = corpus();
        const size_t n = vals.size();
        Run run;
        for (unsigned r = 0; r < kRounds; ++r) {
            std::vector<uint32_t> in(3 * 32);
            for (unsigned l = 0; l < 32; ++l) {
                const size_t k = r * 32 + l;
                in[l] = vals[k % n];
                in[32 + l] = vals[(k / n) % n];
                in[64 + l] = vals[(k * 7 + 3) % n];
            }
            gpu.memory().write(in_buf, in.data(), in.size() * 4);
            gpu.launch(oneWarp(entry));
            auto v = gpu.memory().view(out_buf, (1 + nres) * 32 * 4);
            run.out.insert(run.out.end(), v.begin(), v.end());
        }

        const size_t ib = isa::instrBytes(gpu.family());
        if (const sim::Trace *tr = gpu.codeCache().residentTrace(entry)) {
            for (const sim::StripRun &sr : tr->strips)
                for (const sim::StripOp &o : sr.ops)
                    if (o.pc >= entry + first * ib &&
                        o.pc <= entry + last * ib)
                        ++run.strip_ops;
        }
        return run;
    }
};

TEST_F(LaneOpTableTest, EveryOpMatchesTheInterpreterInAStrip)
{
    for (const Group &g : groups()) {
        SCOPED_TRACE(g.name);
        Run base = runGroup(g, false);
        Run traced = runGroup(g, true);
        // Every op of the group (and the closing P2R) ran in a strip.
        EXPECT_EQ(base.strip_ops, 0u);
        EXPECT_EQ(traced.strip_ops, g.ops.size() + 1);
        ASSERT_EQ(base.out.size(), traced.out.size());
        const size_t round_bytes = base.out.size() / kRounds;
        for (size_t i = 0; i < base.out.size(); i += 4) {
            if (std::memcmp(&base.out[i], &traced.out[i], 4) == 0)
                continue;
            const size_t in_round = i % round_bytes;
            ADD_FAILURE() << "round " << i / round_bytes << " lane "
                          << in_round / 4 % 32 << ": "
                          << (in_round < 128 ? "predicate byte"
                                             : "result register R")
                          << (in_round < 128
                                  ? ""
                                  : std::to_string(kFirstRes +
                                                   in_round / 128 - 1));
            break;
        }
    }
}

} // namespace
} // namespace nvbit
