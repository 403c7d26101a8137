/**
 * @file
 * SimPoint targeted-sampling suite (`ctest -L simpoint`).
 *
 * Four groups:
 *  1. Clustering unit tests: deterministic projection/k-means (same
 *     seed => same clusters), BIC selection on separable data, and
 *     SamplingPlan JSON round-trips.
 *  2. Device checkpoint/restore: snapshot -> perturb -> restore ->
 *     re-run is bit-identical to an uninterrupted run across all four
 *     engine configurations (tests/engine_matrix.hpp), for both
 *     launch-boundary and mid-launch (in-flight CTA) capsules,
 *     including a PC-sampling config.
 *  3. Functional-fidelity passivity: a Functional launch produces the
 *     same memory, instruction counts and cycles as Full, with the
 *     observability side (events, cache stats) quiesced.
 *  4. Driver-level rewind: capture with launches still queued on a
 *     stream, drain, rewind, resume the interrupted launch and re-drain
 *     — final memory and outputs match the first drain.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/nvbit.hpp"
#include "driver/checkpoint.hpp"
#include "driver/internal.hpp"
#include "engine_matrix.hpp"
#include "isa/abi.hpp"
#include "obs/simpoint.hpp"
#include "sim/checkpoint.hpp"
#include "sim/gpu.hpp"
#include "tools/simpoint_sampler.hpp"

namespace nvbit {
namespace {

using isa::DType;
using isa::Instruction;
using isa::Opcode;

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

uint64_t
memHash(const sim::GpuDevice &gpu)
{
    const auto &m = gpu.memory();
    constexpr mem::DevPtr kFirstUsable = 4096;
    auto v = m.view(kFirstUsable, m.size() - kFirstUsable);
    return fnv1a(v.data(), v.size());
}

/** Invariant LaunchStats fields (everything except the Volatile
 *  decode-cache counters, which depend on derived-cache residency). */
void
expectInvariantStatsEq(const sim::LaunchStats &a, const sim::LaunchStats &b)
{
    EXPECT_EQ(a.thread_instrs, b.thread_instrs);
    EXPECT_EQ(a.warp_instrs, b.warp_instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    for (size_t i = 0; i < a.cycles_by_reason.size(); ++i)
        EXPECT_EQ(a.cycles_by_reason[i], b.cycles_by_reason[i])
            << "cycles_by_reason[" << i << "]";
    EXPECT_EQ(a.global_mem_warp_instrs, b.global_mem_warp_instrs);
    EXPECT_EQ(a.unique_lines_sum, b.unique_lines_sum);
    EXPECT_EQ(a.unique_sectors_sum, b.unique_sectors_sum);
    EXPECT_EQ(a.l1_hits, b.l1_hits);
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.l2_hits, b.l2_hits);
    EXPECT_EQ(a.l2_misses, b.l2_misses);
    EXPECT_EQ(a.ctas, b.ctas);
    EXPECT_TRUE(a.events == b.events);
}

// ---------------------------------------------------------------------
// 1. Clustering + plan artifact
// ---------------------------------------------------------------------

/** Synthetic BBVs with two obvious phases: block 1 heavy vs block 2
 *  heavy, alternating with slight per-interval jitter. */
std::vector<obs::Bbv>
twoPhaseBbvs(size_t n)
{
    std::vector<obs::Bbv> bbvs;
    for (size_t i = 0; i < n; ++i) {
        obs::Bbv v;
        if (i % 2 == 0)
            v = {{1, 1000 + i}, {2, 10}};
        else
            v = {{1, 10}, {2, 1000 + i}};
        bbvs.push_back(v);
    }
    return bbvs;
}

TEST(SimpointCluster, ProjectionIsDeterministic)
{
    auto bbvs = twoPhaseBbvs(8);
    auto a = obs::projectBbvs(bbvs, 16, 7);
    auto b = obs::projectBbvs(bbvs, 16, 7);
    EXPECT_EQ(a, b);
    auto c = obs::projectBbvs(bbvs, 16, 8);
    EXPECT_NE(a, c); // different seed, different projection
    // L1 normalisation bounds every coordinate to [-1, 1].
    for (const auto &pt : a)
        for (double x : pt) {
            EXPECT_LE(x, 1.0);
            EXPECT_GE(x, -1.0);
        }
}

TEST(SimpointCluster, KmeansSameSeedSameClusters)
{
    auto pts = obs::projectBbvs(twoPhaseBbvs(10), 16, 42);
    obs::KmeansResult a = obs::kmeans(pts, 3, 42);
    obs::KmeansResult b = obs::kmeans(pts, 3, 42);
    EXPECT_EQ(a.assign, b.assign);
    EXPECT_EQ(a.centroids, b.centroids);
    EXPECT_EQ(a.inertia, b.inertia);
    EXPECT_EQ(a.bic, b.bic);
}

TEST(SimpointCluster, PicksTwoPhasesApart)
{
    auto pts = obs::projectBbvs(twoPhaseBbvs(12), 16, 42);
    obs::KmeansResult r = obs::pickBestClustering(pts, 6, 42);
    ASSERT_GE(r.k, 2u);
    // All even intervals share a cluster, all odd intervals another.
    for (size_t i = 2; i < pts.size(); ++i)
        EXPECT_EQ(r.assign[i], r.assign[i - 2]) << "interval " << i;
    EXPECT_NE(r.assign[0], r.assign[1]);
}

TEST(SimpointCluster, PlanRoundTripsThroughJson)
{
    obs::SamplingPlan plan =
        obs::buildPlan(twoPhaseBbvs(10), 4, 16, 5, 42);
    EXPECT_EQ(plan.num_intervals, 10u);
    EXPECT_EQ(plan.interval_launches, 4u);
    EXPECT_EQ(plan.totalWeight(), 10u);
    EXPECT_EQ(plan.reps.size(), plan.k);

    obs::SamplingPlan back;
    ASSERT_TRUE(obs::SamplingPlan::fromJson(plan.toJson(), &back));
    EXPECT_EQ(back.interval_launches, plan.interval_launches);
    EXPECT_EQ(back.num_intervals, plan.num_intervals);
    EXPECT_EQ(back.seed, plan.seed);
    EXPECT_EQ(back.dims, plan.dims);
    EXPECT_EQ(back.k, plan.k);
    EXPECT_EQ(back.interval_to_cluster, plan.interval_to_cluster);
    ASSERT_EQ(back.reps.size(), plan.reps.size());
    for (size_t i = 0; i < plan.reps.size(); ++i) {
        EXPECT_EQ(back.reps[i].interval, plan.reps[i].interval);
        EXPECT_EQ(back.reps[i].weight, plan.reps[i].weight);
        EXPECT_EQ(back.reps[i].cluster, plan.reps[i].cluster);
    }
    // Same inputs => byte-identical artifact (determinism contract).
    EXPECT_EQ(back.toJson(), plan.toJson());

    obs::SamplingPlan rejected;
    EXPECT_FALSE(obs::SamplingPlan::fromJson("", &rejected));
    EXPECT_FALSE(obs::SamplingPlan::fromJson("{\"k\": 1}", &rejected));
    EXPECT_FALSE(obs::SamplingPlan::fromJson("not json", &rejected));
    // Inconsistent plan: rep points past num_intervals.
    std::string bad = plan.toJson();
    obs::SamplingPlan mangled = plan;
    mangled.reps[0].interval = plan.num_intervals + 5;
    EXPECT_FALSE(
        obs::SamplingPlan::fromJson(mangled.toJson(), &rejected));
}

TEST(SimpointCluster, ExtrapolationWeightsMeasurements)
{
    obs::SamplingPlan plan;
    plan.interval_launches = 1;
    plan.num_intervals = 5;
    plan.k = 2;
    plan.reps = {{0, 3, 0}, {1, 2, 1}};
    plan.interval_to_cluster = {0, 1, 0, 1, 0};

    obs::IntervalMeasurement m0, m1;
    m0.events.add(obs::HwEvent::InstExecuted, 100);
    m0.elapsed_cycles = 50;
    m0.sm_cycle_capacity = 200;
    m1.events.add(obs::HwEvent::InstExecuted, 10);
    m1.elapsed_cycles = 5;
    m1.sm_cycle_capacity = 20;

    obs::IntervalMeasurement total = obs::extrapolate(plan, {m0, m1});
    EXPECT_EQ(total.events.get(obs::HwEvent::InstExecuted), 320u);
    EXPECT_EQ(total.elapsed_cycles, 160u);
    EXPECT_EQ(total.sm_cycle_capacity, 640u);

    double ipc = 0.0;
    ASSERT_TRUE(obs::evaluateMetric(
        "ipc", obs::toMetricInputs(total, 64), &ipc));
    EXPECT_DOUBLE_EQ(ipc, 2.0);
}

// ---------------------------------------------------------------------
// 2. Device checkpoint/restore across engine configs
// ---------------------------------------------------------------------

/** One engine-matrix row, optionally with PC sampling on. */
struct SimpointEngine {
    EngineConfig engine;
    uint64_t pc_sample_period;
};

/** The engine matrix plus PC sampling on the serial engine. */
std::vector<SimpointEngine>
simpointEngines()
{
    std::vector<SimpointEngine> v;
    for (const EngineConfig &e : kEngineMatrix)
        v.push_back({e, 0});
    v.push_back({kEngineMatrix[0], 16});
    return v;
}

/** Test-name suffix: the per-instruction rows are named "_pre"
 *  (predecoded), sampled rows "_pcsamp". */
std::string
simpointEngineName(const SimpointEngine &p)
{
    std::string name = p.engine.name;
    if (!p.engine.traces)
        name += "_pre";
    if (p.pc_sample_period != 0)
        name += "_pcsamp";
    return name;
}

void
PrintTo(const SimpointEngine &p, std::ostream *os)
{
    *os << simpointEngineName(p);
}

class SimpointCheckpointTest
    : public ::testing::TestWithParam<SimpointEngine>
{
  protected:
    void
    SetUp() override
    {
        clearEngineEnv();
        unsetenv("NVBIT_SIM_PC_SAMPLING");
    }

    sim::GpuConfig
    makeConfig() const
    {
        sim::GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.mem_bytes = 8 << 20;
        GetParam().engine.apply(cfg);
        cfg.pc_sample_period = GetParam().pc_sample_period;
        return cfg;
    }

    /**
     * Deterministic setup: a counted loop (300+ instructions per warp,
     * so CTAs span several 128-instruction scheduling rounds and a
     * mid-round checkpoint can land inside the loop), then per-lane
     * strided stores plus a grid-wide atomic counter, over 10 CTAs x
     * 64 threads (2 warps per CTA).  Returns the entry PC.
     * Buffer/counter addresses land identically on every fresh device.
     */
    uint64_t
    placeProgram(sim::GpuDevice &gpu, mem::DevPtr *counter_out)
    {
        mem::DevPtr counter = gpu.memory().alloc(4);
        gpu.memory().write32(counter, 0);
        mem::DevPtr buf = gpu.memory().alloc(64 * 4);
        const size_t ib = isa::instrBytes(gpu.family());

        std::vector<Instruction> prog;
        // R20 counts 0..99; the 3-instruction body runs 100 times, so
        // each warp retires >300 instructions before the stores below.
        prog.push_back(isa::makeMovImm(20, 0));
        prog.push_back(isa::makeIAddImm(20, 20, 1)); // loop head
        Instruction loop_setp;
        loop_setp.op = Opcode::ISETP;
        loop_setp.mod = isa::modSetSetpDType(
            isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::LT), DType::U32);
        loop_setp.rd = 1;
        loop_setp.ra = 20;
        loop_setp.imm = 100;
        prog.push_back(loop_setp);
        prog.push_back(isa::makeBra(-static_cast<int64_t>(3 * ib), 1));
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

        auto bytes = isa::encodeAll(gpu.family(), prog);
        mem::DevPtr entry = gpu.memory().alloc(bytes.size(), 16);
        gpu.memory().write(entry, bytes.data(), bytes.size());
        if (counter_out)
            *counter_out = counter;
        return entry;
    }

    sim::LaunchParams
    gridLaunch(uint64_t entry) const
    {
        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.grid[0] = 10;
        lp.block[0] = 64;
        return lp;
    }
};

TEST_P(SimpointCheckpointTest, BoundaryRestoreResumesBitIdentical)
{
    // Reference: two launches back to back, uninterrupted.
    auto ref = std::make_unique<sim::GpuDevice>(makeConfig());
    mem::DevPtr counter = 0;
    uint64_t entry = placeProgram(*ref, &counter);
    ref->launch(gridLaunch(entry));
    sim::LaunchStats ref_second = ref->launch(gridLaunch(entry));
    uint64_t ref_hash = memHash(*ref);
    EXPECT_EQ(ref->memory().read32(counter), 1280u);

    // Checkpointed: snapshot after launch 1, run launch 2, rewind,
    // run launch 2 again — state and stats must repeat exactly.
    auto gpu = std::make_unique<sim::GpuDevice>(makeConfig());
    entry = placeProgram(*gpu, &counter);
    gpu->launch(gridLaunch(entry));
    sim::GpuState snap = gpu->snapshot();
    EXPECT_FALSE(snap.mid_launch);

    sim::LaunchStats first_replay = gpu->launch(gridLaunch(entry));
    EXPECT_EQ(memHash(*gpu), ref_hash);

    gpu->restore(snap);
    EXPECT_EQ(gpu->memory().read32(counter), 640u); // rewound
    sim::LaunchStats second_replay = gpu->launch(gridLaunch(entry));
    EXPECT_EQ(memHash(*gpu), ref_hash);
    expectInvariantStatsEq(ref_second, first_replay);
    expectInvariantStatsEq(first_replay, second_replay);
}

TEST_P(SimpointCheckpointTest, MidLaunchResumeMatchesUninterrupted)
{
    auto ref = std::make_unique<sim::GpuDevice>(makeConfig());
    mem::DevPtr counter = 0;
    uint64_t entry = placeProgram(*ref, &counter);
    sim::LaunchStats ref_stats = ref->launch(gridLaunch(entry));
    uint64_t ref_hash = memHash(*ref);

    // Capture in-flight: CTA 5, scheduling round 2 (both warps of the
    // CTA mid-execution, stream of committed CTAs 0..4 behind it).
    auto cap = std::make_unique<sim::GpuDevice>(makeConfig());
    entry = placeProgram(*cap, &counter);
    sim::GpuState st;
    cap->armCheckpoint(/*cta_index=*/5, /*round=*/2, &st);
    EXPECT_TRUE(cap->checkpointArmed());
    sim::LaunchStats armed_stats = cap->launch(gridLaunch(entry));
    EXPECT_FALSE(cap->checkpointArmed());
    ASSERT_TRUE(st.mid_launch);
    EXPECT_TRUE(st.mid_cta.has_value());
    EXPECT_EQ(st.next_cta, 5u);
    // The armed launch itself is unperturbed.
    expectInvariantStatsEq(ref_stats, armed_stats);
    EXPECT_EQ(memHash(*cap), ref_hash);

    // Resume on a fresh device: the capsule carries everything.
    auto res = std::make_unique<sim::GpuDevice>(makeConfig());
    placeProgram(*res, &counter); // identical layout, then overwritten
    sim::LaunchStats resumed = res->resumeLaunch(st);
    expectInvariantStatsEq(ref_stats, resumed);
    EXPECT_EQ(memHash(*res), ref_hash);
    EXPECT_EQ(res->memory().read32(counter), 640u);

    // Resume is repeatable from the same capsule.
    auto res2 = std::make_unique<sim::GpuDevice>(makeConfig());
    placeProgram(*res2, &counter);
    sim::LaunchStats resumed2 = res2->resumeLaunch(st);
    expectInvariantStatsEq(resumed, resumed2);
    EXPECT_EQ(memHash(*res2), ref_hash);
}

TEST_P(SimpointCheckpointTest, BoundaryFallbackWhenRoundNeverReached)
{
    auto ref = std::make_unique<sim::GpuDevice>(makeConfig());
    mem::DevPtr counter = 0;
    uint64_t entry = placeProgram(*ref, &counter);
    sim::LaunchStats ref_stats = ref->launch(gridLaunch(entry));
    uint64_t ref_hash = memHash(*ref);

    // Round 1'000'000 never arrives: the capture degrades to CTA 3's
    // completion boundary (next_cta = 4, no in-flight image).
    auto cap = std::make_unique<sim::GpuDevice>(makeConfig());
    entry = placeProgram(*cap, &counter);
    sim::GpuState st;
    cap->armCheckpoint(/*cta_index=*/3, /*round=*/1000000, &st);
    cap->launch(gridLaunch(entry));
    ASSERT_TRUE(st.mid_launch);
    EXPECT_FALSE(st.mid_cta.has_value());
    EXPECT_EQ(st.next_cta, 4u);

    auto res = std::make_unique<sim::GpuDevice>(makeConfig());
    placeProgram(*res, &counter);
    sim::LaunchStats resumed = res->resumeLaunch(st);
    expectInvariantStatsEq(ref_stats, resumed);
    EXPECT_EQ(memHash(*res), ref_hash);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, SimpointCheckpointTest,
    ::testing::ValuesIn(simpointEngines()),
    [](const ::testing::TestParamInfo<SimpointEngine> &info) {
        return simpointEngineName(info.param);
    });

// ---------------------------------------------------------------------
// 3. Functional fidelity passivity
// ---------------------------------------------------------------------

TEST(SimpointFidelity, FunctionalMatchesFullArchitecturally)
{
    auto run = [](sim::Fidelity f) {
        sim::GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.mem_bytes = 8 << 20;
        auto gpu = std::make_unique<sim::GpuDevice>(cfg);
        gpu->setFidelity(f);

        mem::DevPtr buf = gpu->memory().alloc(64 * 4);
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
        prog.push_back(isa::makeExit());
        auto bytes = isa::encodeAll(gpu->family(), prog);
        mem::DevPtr entry = gpu->memory().alloc(bytes.size(), 16);
        gpu->memory().write(entry, bytes.data(), bytes.size());

        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.grid[0] = 6;
        lp.block[0] = 64;
        sim::LaunchStats st = gpu->launch(lp);
        return std::make_pair(st, memHash(*gpu));
    };

    auto [full, full_hash] = run(sim::Fidelity::Full);
    auto [func, func_hash] = run(sim::Fidelity::Functional);

    // Architectural state and instruction counts are bit-identical...
    EXPECT_EQ(full_hash, func_hash);
    EXPECT_EQ(full.thread_instrs, func.thread_instrs);
    EXPECT_EQ(full.warp_instrs, func.warp_instrs);
    EXPECT_EQ(full.ctas, func.ctas);
    // ...and the in-execution (%clock-visible) cycle stream matches,
    // but the *reported* total in Full mode additionally folds in the
    // post-join L1/L2 miss replay penalties, which Functional skips —
    // so Functional's total is a lower bound, never larger.
    EXPECT_GT(func.cycles, 0u);
    EXPECT_LE(func.cycles, full.cycles);

    // ...while the observability side is quiesced in Functional mode.
    EXPECT_FALSE(full.events.empty());
    EXPECT_TRUE(func.events.empty());
    EXPECT_GT(full.l1_hits + full.l1_misses, 0u);
    EXPECT_EQ(func.l1_hits + func.l1_misses, 0u);
    EXPECT_EQ(func.global_mem_warp_instrs, 0u);
}

TEST(SimpointFidelity, FunctionalCountsMatchInEveryEngine)
{
    // A Functional launch counts instructions and cycles only, in
    // every engine: a straight-line run long enough for a trace and a
    // strip, then a store.
    auto run = [](const EngineConfig &e) {
        clearEngineEnv();
        sim::GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.mem_bytes = 8 << 20;
        e.apply(cfg);
        auto gpu = std::make_unique<sim::GpuDevice>(cfg);
        gpu->setFidelity(sim::Fidelity::Functional);

        mem::DevPtr buf = gpu->memory().alloc(64 * 4);
        std::vector<Instruction> prog;
        prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
        prog.push_back(isa::makeMovReg(5, 4));
        for (int i = 0; i < 20; ++i)
            prog.push_back(isa::makeIAddImm(5, 5, i));
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
        prog.push_back(isa::makeStore(Opcode::STG, 8, 0, 5));
        prog.push_back(isa::makeExit());
        auto bytes = isa::encodeAll(gpu->family(), prog);
        mem::DevPtr entry = gpu->memory().alloc(bytes.size(), 16);
        gpu->memory().write(entry, bytes.data(), bytes.size());

        sim::LaunchParams lp;
        lp.entry_pc = entry;
        lp.grid[0] = 2;
        lp.block[0] = 64;
        sim::LaunchStats st = gpu->launch(lp);
        return std::make_pair(st, memHash(*gpu));
    };

    auto [base, base_hash] = run(kEngineMatrix[0]);
    EXPECT_GT(base.warp_instrs, 0u);
    EXPECT_TRUE(base.events.empty());
    EXPECT_EQ(base.warp_instrs_by_op,
              decltype(base.warp_instrs_by_op){});
    for (const EngineConfig &e : kEngineMatrix) {
        SCOPED_TRACE(e.name);
        auto [st, hash] = run(e);
        EXPECT_EQ(hash, base_hash);
        expectInvariantStatsEq(base, st);
        EXPECT_EQ(base.warp_instrs_by_op, st.warp_instrs_by_op);
        EXPECT_EQ(base.thread_instrs_by_op, st.thread_instrs_by_op);
        EXPECT_EQ(base.decode_cache_hits, st.decode_cache_hits);
        EXPECT_EQ(base.decode_cache_misses, st.decode_cache_misses);
    }
}

// ---------------------------------------------------------------------
// 4. Driver-level rewind with in-flight queue state
// ---------------------------------------------------------------------

namespace drv = nvbit::cudrv;

const char *kSlowSum = R"(
.visible .entry slowsum(.param .u64 out, .param .u32 n)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    mov.u32 %r1, 0;
    mov.u32 %r2, 0;
LOOP:
    add.u32 %r1, %r1, %r2;
    add.u32 %r2, %r2, 1;
    ld.param.u32 %r3, [n];
    setp.lt.u32 %p1, %r2, %r3;
    @%p1 bra LOOP;
    ld.param.u64 %rd1, [out];
    st.global.u32 [%rd1], %r1;
    exit;
}
)";

const char *kScale = R"(
.visible .entry scale(.param .u64 buf, .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r4, %r1, %r2, %tid.x;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [buf];
    mul.wide.u32 %rd2, %r4, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.u32 %r6, [%rd3];
    mul.lo.u32 %r7, %r6, 3;
    st.global.u32 [%rd3], %r7;
DONE:
    exit;
}
)";

class SimpointDriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        drv::resetDriver();
        drv::checkCu(drv::cuInit(0), "cuInit");
        drv::checkCu(drv::cuCtxCreate(&ctx_, 0, 0), "cuCtxCreate");
    }

    void
    TearDown() override
    {
        drv::detail::StreamService::instance().unpause();
        drv::resetDriver();
    }

    drv::CUfunction
    loadKernel(const char *ptx, const char *name)
    {
        drv::CUmodule mod = nullptr;
        EXPECT_EQ(drv::cuModuleLoadData(&mod, ptx, 0),
                  drv::CUDA_SUCCESS);
        drv::CUfunction fn = nullptr;
        EXPECT_EQ(drv::cuModuleGetFunction(&fn, mod, name),
                  drv::CUDA_SUCCESS);
        return fn;
    }

    drv::CUcontext ctx_ = nullptr;
};

TEST_F(SimpointDriverTest, MidLaunchRewindWithInflightQueueState)
{
    drv::CUfunction slow = loadKernel(kSlowSum, "slowsum");
    drv::CUfunction scale = loadKernel(kScale, "scale");

    drv::CUdeviceptr sum_out = 0, buf = 0;
    constexpr uint32_t kN = 64;
    drv::checkCu(drv::cuMemAlloc(&sum_out, 4), "alloc");
    drv::checkCu(drv::cuMemAlloc(&buf, kN * 4), "alloc");
    std::vector<uint32_t> init(kN);
    for (uint32_t i = 0; i < kN; ++i)
        init[i] = i + 1;
    drv::checkCu(drv::cuMemcpyHtoD(buf, init.data(), kN * 4), "htod");

    drv::CUstream s = nullptr;
    drv::checkCu(drv::cuStreamCreate(&s, 0), "stream");

    auto enqueueBoth = [&] {
        uint32_t loops = 5000;
        void *p1[] = {&sum_out, &loops};
        drv::checkCu(drv::cuLaunchKernel(slow, 1, 1, 1, 1, 1, 1, 0, s,
                                         p1, nullptr),
                     "launch slow");
        uint32_t n = kN;
        void *p2[] = {&buf, &n};
        drv::checkCu(drv::cuLaunchKernel(scale, 1, 1, 1, kN, 1, 1, 0, s,
                                         p2, nullptr),
                     "launch scale");
    };

    // Pause the service, enqueue both launches (they stay queued) and
    // capture: queue snapshot holds both ops; then arm a mid-launch
    // device capture that the first launch (slowsum) will trigger.
    drv::detail::StreamService &svc =
        drv::detail::StreamService::instance();
    svc.pause();
    enqueueBoth();
    drv::DriverCheckpoint dc = drv::captureDriverState(ctx_);
    ASSERT_EQ(dc.queues.entries.size(), 2u);
    drv::armDeviceCheckpoint(ctx_, /*cta_index=*/0, /*round=*/1000,
                             &dc.device);

    // Drain pass 1.
    svc.unpause();
    drv::checkCu(drv::cuStreamSynchronize(s), "sync1");
    ASSERT_TRUE(dc.device.mid_launch);

    uint32_t sum1 = 0;
    std::vector<uint32_t> buf1(kN);
    drv::checkCu(drv::cuMemcpyDtoH(&sum1, sum_out, 4), "dtoh");
    drv::checkCu(drv::cuMemcpyDtoH(buf1.data(), buf, kN * 4), "dtoh");
    EXPECT_EQ(sum1, 5000u * 4999u / 2);
    for (uint32_t i = 0; i < kN; ++i)
        EXPECT_EQ(buf1[i], 3 * (i + 1)) << "buf[" << i << "]";
    sim::LaunchStats totals1 = drv::contextTotalStats(ctx_);

    // Rewind: the capsule supersedes the slowsum op (it finishes via
    // resumeCheckpointedLaunch), the scale op re-queues and re-runs.
    svc.pause();
    dc.queues.entries.erase(dc.queues.entries.begin());
    drv::restoreDriverState(ctx_, dc);
    ASSERT_EQ(drv::resumeCheckpointedLaunch(ctx_, slow, dc.device),
              drv::CUDA_SUCCESS);
    svc.unpause();
    drv::checkCu(drv::cuStreamSynchronize(s), "sync2");

    uint32_t sum2 = 0;
    std::vector<uint32_t> buf2(kN);
    drv::checkCu(drv::cuMemcpyDtoH(&sum2, sum_out, 4), "dtoh");
    drv::checkCu(drv::cuMemcpyDtoH(buf2.data(), buf, kN * 4), "dtoh");
    EXPECT_EQ(sum2, sum1);
    EXPECT_EQ(buf2, buf1);

    // Tenant accounting was rewound and re-accumulated identically.
    sim::LaunchStats totals2 = drv::contextTotalStats(ctx_);
    expectInvariantStatsEq(totals1, totals2);

    drv::checkCu(drv::cuStreamDestroy(s), "destroy");
}

TEST_F(SimpointDriverTest, PauseBlocksDispatchButNotEnqueue)
{
    drv::CUfunction slow = loadKernel(kSlowSum, "slowsum");
    drv::CUdeviceptr out = 0;
    drv::checkCu(drv::cuMemAlloc(&out, 4), "alloc");
    drv::checkCu(drv::cuMemsetD8(out, 0, 4), "memset");

    drv::CUstream s = nullptr;
    drv::checkCu(drv::cuStreamCreate(&s, 0), "stream");

    drv::detail::StreamService &svc =
        drv::detail::StreamService::instance();
    svc.pause();
    EXPECT_TRUE(svc.paused());
    uint32_t loops = 100;
    void *p[] = {&out, &loops};
    drv::checkCu(drv::cuLaunchKernel(slow, 1, 1, 1, 1, 1, 1, 0, s, p,
                                     nullptr),
                 "launch");
    // Queued, not dispatched: the op is visible in a queue capture.
    drv::DriverCheckpoint dc = drv::captureDriverState(ctx_);
    EXPECT_EQ(dc.queues.entries.size(), 1u);
    EXPECT_EQ(drv::cuStreamQuery(s), drv::CUDA_ERROR_NOT_READY);

    svc.unpause();
    EXPECT_FALSE(svc.paused());
    drv::checkCu(drv::cuStreamSynchronize(s), "sync");
    uint32_t v = 0;
    drv::checkCu(drv::cuMemcpyDtoH(&v, out, 4), "dtoh");
    EXPECT_EQ(v, 100u * 99u / 2);
    drv::checkCu(drv::cuStreamDestroy(s), "destroy");
}

// ---------------------------------------------------------------------
// 5. Replayer fail-fast: explicit streams / async copies are rejected
// ---------------------------------------------------------------------

/** The sampled replay maps launch ordinals to plan intervals; that
 *  mapping is only meaningful for the serialized default-stream order
 *  the profile observed.  Apps using explicit streams or async copies
 *  must be rejected with a clear error, not silently mis-sampled. */
class ReplayerFailFastTest : public ::testing::Test
{
  protected:
    void SetUp() override { drv::resetDriver(); }
    void TearDown() override { drv::resetDriver(); }

    static obs::SamplingPlan
    trivialPlan()
    {
        obs::SamplingPlan plan;
        plan.interval_launches = 1;
        plan.num_intervals = 1;
        plan.k = 1;
        plan.reps.push_back({0, 1, 0});
        plan.interval_to_cluster = {0};
        return plan;
    }

    /** Runs @p body under a sampled-mode replayer; returns the
     *  runtime_error message it raised (empty = none). */
    static std::string
    replayError(const std::function<void()> &body)
    {
        tools::SimpointReplayer::Options opts;
        opts.plan = trivialPlan();
        opts.oracle = false;
        tools::SimpointReplayer replayer(std::move(opts));
        std::string msg;
        runApp(replayer, [&] {
            drv::checkCu(drv::cuInit(0), "init");
            drv::CUcontext ctx = nullptr;
            drv::checkCu(drv::cuCtxCreate(&ctx, 0, 0), "ctx");
            try {
                body();
            } catch (const std::runtime_error &e) {
                msg = e.what();
            }
        });
        return msg;
    }
};

TEST_F(ReplayerFailFastTest, StreamCreateIsRejectedWithClearError)
{
    std::string msg = replayError([] {
        drv::CUstream s = nullptr;
        drv::cuStreamCreate(&s, 0);
    });
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("cuStreamCreate"), std::string::npos);
    EXPECT_NE(msg.find("default-stream"), std::string::npos);
}

TEST_F(ReplayerFailFastTest, AsyncCopiesAreRejectedWithClearError)
{
    std::string h2d = replayError([] {
        drv::CUdeviceptr d = 0;
        drv::checkCu(drv::cuMemAlloc(&d, 16), "alloc");
        uint32_t v[4] = {1, 2, 3, 4};
        drv::cuMemcpyHtoDAsync(d, v, 16, nullptr);
    });
    ASSERT_FALSE(h2d.empty());
    EXPECT_NE(h2d.find("cuMemcpyHtoDAsync"), std::string::npos);

    std::string d2h = replayError([] {
        drv::CUdeviceptr d = 0;
        drv::checkCu(drv::cuMemAlloc(&d, 16), "alloc");
        uint32_t v[4];
        drv::cuMemcpyDtoHAsync(v, d, 16, nullptr);
    });
    ASSERT_FALSE(d2h.empty());
    EXPECT_NE(d2h.find("cuMemcpyDtoHAsync"), std::string::npos);
}

TEST_F(ReplayerFailFastTest, ExplicitStreamLaunchIsRejected)
{
    const char *ptx = R"(
.visible .entry nopk()
{
    exit;
}
)";
    std::string msg = replayError([&] {
        drv::CUmodule mod = nullptr;
        drv::checkCu(drv::cuModuleLoadData(&mod, ptx, 0), "load");
        drv::CUfunction fn = nullptr;
        drv::checkCu(drv::cuModuleGetFunction(&fn, mod, "nopk"), "get");
        // A non-null stream handle must be rejected before dispatch;
        // the handle itself is never dereferenced.
        auto bogus = reinterpret_cast<drv::CUstream>(0x1);
        drv::cuLaunchKernel(fn, 1, 1, 1, 1, 1, 1, 0, bogus, nullptr,
                            nullptr);
    });
    ASSERT_FALSE(msg.empty());
    EXPECT_NE(msg.find("explicit stream"), std::string::npos);
}

TEST_F(ReplayerFailFastTest, DefaultStreamAppStillReplays)
{
    const char *ptx = R"(
.visible .entry nopk()
{
    exit;
}
)";
    std::string msg = replayError([&] {
        drv::CUmodule mod = nullptr;
        drv::checkCu(drv::cuModuleLoadData(&mod, ptx, 0), "load");
        drv::CUfunction fn = nullptr;
        drv::checkCu(drv::cuModuleGetFunction(&fn, mod, "nopk"), "get");
        drv::checkCu(drv::cuLaunchKernel(fn, 1, 1, 1, 32, 1, 1, 0,
                                         nullptr, nullptr, nullptr),
                     "launch");
    });
    EXPECT_TRUE(msg.empty()) << msg;
}

} // namespace
} // namespace nvbit
