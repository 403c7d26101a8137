/**
 * @file
 * Unit tests for the SIMT simulator: execution semantics, divergence,
 * warp intrinsics, atomics, traps, and the stats oracles.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "isa/abi.hpp"
#include "obs/profile.hpp"
#include "obs/sanitizer.hpp"
#include "sim/gpu.hpp"

namespace nvbit::sim {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::DType;

/** Test fixture with a small device and helpers to place code/data. */
class SimTest : public ::testing::Test
{
  protected:
    GpuConfig
    smallConfig()
    {
        GpuConfig cfg;
        cfg.num_sms = 4;
        cfg.mem_bytes = 8 << 20;
        return cfg;
    }

    void
    SetUp() override
    {
        gpu_ = std::make_unique<GpuDevice>(smallConfig());
    }

    /** Write a program into device memory; returns its entry PC. */
    uint64_t
    place(const std::vector<Instruction> &prog)
    {
        auto bytes = isa::encodeAll(gpu_->family(), prog);
        mem::DevPtr p = gpu_->memory().alloc(bytes.size(), 16);
        gpu_->memory().write(p, bytes.data(), bytes.size());
        return p;
    }

    LaunchParams
    oneWarp(uint64_t entry)
    {
        LaunchParams lp;
        lp.entry_pc = entry;
        lp.block[0] = 32;
        return lp;
    }

    std::unique_ptr<GpuDevice> gpu_;
};

TEST_F(SimTest, StoresLaneIdTimesTwo)
{
    mem::DevPtr buf = gpu_->memory().alloc(32 * 4);
    std::vector<Instruction> prog;
    // R4 = laneid; R5 = laneid*2; R6:R7 = buf; addr += laneid*4
    prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    Instruction mul = isa::makeIAddImm(5, 4, 0);
    mul.op = Opcode::IMUL;
    mul.imm = 2;
    prog.push_back(mul);
    isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
    // R8:R9 = laneid * 4 + buf  (IMAD.WIDE)
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

    uint64_t entry = place(prog);
    LaunchStats st = gpu_->launch(oneWarp(entry));
    EXPECT_GT(st.thread_instrs, 0u);
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(gpu_->memory().read32(buf + i * 4), i * 2);
}

TEST_F(SimTest, PredicationDisablesEffects)
{
    mem::DevPtr buf = gpu_->memory().alloc(32 * 4);
    gpu_->memory().write32(buf, 0);
    std::vector<Instruction> prog;
    prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    // P0 = laneid < 7
    Instruction setp;
    setp.op = Opcode::ISETP;
    setp.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::LT), DType::U32);
    setp.rd = 0;
    setp.ra = 4;
    setp.imm = 7;
    prog.push_back(setp);
    // @P0 atomically add 1 to buf
    isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
    prog.push_back(isa::makeMovImm(8, 1));
    Instruction atom;
    atom.op = Opcode::ATOM;
    atom.mod = isa::modSetAtomDType(isa::modSetAtomOp(0, isa::AtomOp::ADD),
                                    DType::U32);
    atom.pred = 0;
    atom.rd = isa::kRegZ;
    atom.ra = 6;
    atom.rb = 8;
    prog.push_back(atom);
    prog.push_back(isa::makeExit());

    gpu_->launch(oneWarp(place(prog)));
    EXPECT_EQ(gpu_->memory().read32(buf), 7u);
}

TEST_F(SimTest, DivergentBranchReconverges)
{
    // if (laneid < 16) r5 = 100; else r5 = 200;  then all store r5+1.
    mem::DevPtr buf = gpu_->memory().alloc(32 * 4);
    std::vector<Instruction> prog;
    const size_t ib = isa::instrBytes(gpu_->family());

    prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    Instruction setp;
    setp.op = Opcode::ISETP;
    setp.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::GE), DType::U32);
    setp.rd = 0;
    setp.ra = 4;
    setp.imm = 16;
    prog.push_back(setp);                               // idx 1
    prog.push_back(isa::makeBra(2 * ib, 0, false));     // idx 2: @P0 skip 2
    prog.push_back(isa::makeMovImm(5, 100));            // idx 3 (then)
    prog.push_back(isa::makeBra(1 * ib));               // idx 4: skip else
    prog.push_back(isa::makeMovImm(5, 200));            // idx 5 (else)
    prog.push_back(isa::makeIAddImm(5, 5, 1));          // idx 6 (joined)
    // store r5 to buf[laneid]
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

    LaunchStats st = gpu_->launch(oneWarp(place(prog)));
    for (uint32_t i = 0; i < 32; ++i) {
        EXPECT_EQ(gpu_->memory().read32(buf + i * 4),
                  i < 16 ? 101u : 201u)
            << "lane " << i;
    }
    // The joined IADD must have executed as ONE warp instruction
    // (min-PC scheduling reconverged both paths).
    EXPECT_EQ(st.warp_instrs_by_op[static_cast<size_t>(Opcode::IADD)],
              1u);
}

TEST_F(SimTest, VoteBallotAndPopc)
{
    mem::DevPtr buf = gpu_->memory().alloc(4);
    std::vector<Instruction> prog;
    prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    // P1 = (laneid & 1) != 0
    Instruction andi = isa::makeIAddImm(5, 4, 0);
    andi.op = Opcode::AND;
    andi.imm = 1;
    prog.push_back(andi);
    Instruction setp;
    setp.op = Opcode::ISETP;
    setp.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::NE), DType::U32);
    setp.rd = 1;
    setp.ra = 5;
    setp.imm = 0;
    prog.push_back(setp);
    // R6 = ballot(P1) -> 0xAAAAAAAA; R7 = popc(R6) -> 16
    Instruction vote;
    vote.op = Opcode::VOTE;
    vote.mod = isa::modSetVotePred(
        isa::modSetVoteMode(0, isa::VoteMode::BALLOT), 1, false);
    vote.rd = 6;
    prog.push_back(vote);
    Instruction popc;
    popc.op = Opcode::POPC;
    popc.rd = 7;
    popc.ra = 6;
    prog.push_back(popc);
    // lane 0 stores both
    Instruction setp0;
    setp0.op = Opcode::ISETP;
    setp0.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::EQ), DType::U32);
    setp0.rd = 2;
    setp0.ra = 4;
    setp0.imm = 0;
    prog.push_back(setp0);
    isa::emitMaterialize32(prog, 8, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 9, static_cast<uint32_t>(buf >> 32));
    Instruction st = isa::makeStore(Opcode::STG, 8, 0, 6);
    st.pred = 2;
    prog.push_back(st);
    prog.push_back(isa::makeExit());

    gpu_->launch(oneWarp(place(prog)));
    EXPECT_EQ(gpu_->memory().read32(buf), 0xAAAAAAAAu);
}

TEST_F(SimTest, ShflBflyReduction)
{
    // Butterfly sum across the warp: every lane ends with 0+1+...+31.
    mem::DevPtr buf = gpu_->memory().alloc(32 * 4);
    std::vector<Instruction> prog;
    prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    prog.push_back(isa::makeMovReg(5, 4)); // acc = laneid
    for (unsigned delta = 16; delta >= 1; delta /= 2) {
        Instruction sh;
        sh.op = Opcode::SHFL;
        sh.mod = isa::modSetShflMode(0, isa::ShflMode::BFLY) |
                 isa::kModShflImm;
        sh.rd = 6;
        sh.ra = 5;
        sh.imm = delta;
        prog.push_back(sh);
        prog.push_back(isa::makeIAddReg(5, 5, 6));
    }
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

    gpu_->launch(oneWarp(place(prog)));
    for (uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(gpu_->memory().read32(buf + i * 4), 496u);
}

TEST_F(SimTest, MatchAnyGroupsEqualValues)
{
    mem::DevPtr buf = gpu_->memory().alloc(32 * 4);
    std::vector<Instruction> prog;
    prog.push_back(isa::makeS2R(4, isa::SpecialReg::LANEID));
    // R5 = laneid & 3 (four groups of eight)
    Instruction andi = isa::makeIAddImm(5, 4, 0);
    andi.op = Opcode::AND;
    andi.imm = 3;
    prog.push_back(andi);
    Instruction match;
    match.op = Opcode::MATCH;
    match.rd = 6;
    match.ra = 5;
    prog.push_back(match);
    isa::emitMaterialize32(prog, 8, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 9, static_cast<uint32_t>(buf >> 32));
    prog.push_back(isa::makeMovImm(10, 4));
    Instruction mad;
    mad.op = Opcode::IMAD;
    mad.mod = isa::modSetDType(0, DType::U64);
    mad.rd = 12;
    mad.ra = 4;
    mad.rb = 10;
    mad.rc = 8;
    prog.push_back(mad);
    prog.push_back(isa::makeStore(Opcode::STG, 12, 0, 6));
    prog.push_back(isa::makeExit());

    gpu_->launch(oneWarp(place(prog)));
    // Lanes 0,4,8,... share value 0 -> mask 0x11111111 etc.
    EXPECT_EQ(gpu_->memory().read32(buf + 0), 0x11111111u);
    EXPECT_EQ(gpu_->memory().read32(buf + 4), 0x22222222u);
    EXPECT_EQ(gpu_->memory().read32(buf + 8), 0x44444444u);
    EXPECT_EQ(gpu_->memory().read32(buf + 12), 0x88888888u);
}

TEST_F(SimTest, CallReturnWithHardwareStack)
{
    // main: R4 = 5; CAL f; store R4.  f: R4 += 37; RET.
    mem::DevPtr buf = gpu_->memory().alloc(4);
    std::vector<Instruction> fbody = {
        isa::makeIAddImm(4, 4, 37),
        isa::makeRet(),
    };
    uint64_t faddr = place(fbody);

    std::vector<Instruction> prog;
    prog.push_back(isa::makeMovImm(4, 5));
    prog.push_back(isa::makeCalAbs(faddr));
    isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
    Instruction st = isa::makeStore(Opcode::STG, 6, 0, 4);
    st.pred = 0; // only lanes with P0 true... set P0 = laneid==0
    Instruction setp0;
    setp0.op = Opcode::ISETP;
    setp0.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::EQ), DType::U32);
    setp0.rd = 0;
    setp0.ra = 8;
    setp0.imm = 0;
    prog.push_back(isa::makeS2R(8, isa::SpecialReg::LANEID));
    prog.push_back(setp0);
    prog.push_back(st);
    prog.push_back(isa::makeExit());

    gpu_->launch(oneWarp(place(prog)));
    EXPECT_EQ(gpu_->memory().read32(buf), 42u);
}

TEST_F(SimTest, RetWithEmptyStackTraps)
{
    std::vector<Instruction> prog = {isa::makeRet()};
    EXPECT_THROW(gpu_->launch(oneWarp(place(prog))), DeviceException);
}

TEST_F(SimTest, ProxyInstructionTraps)
{
    Instruction proxy;
    proxy.op = Opcode::PROXY;
    proxy.imm = 42;
    std::vector<Instruction> prog = {proxy, isa::makeExit()};
    try {
        gpu_->launch(oneWarp(place(prog)));
        FAIL() << "expected DeviceException";
    } catch (const DeviceException &t) {
        EXPECT_NE(t.reason.find("PROXY"), std::string::npos);
        EXPECT_NE(t.reason.find("42"), std::string::npos);
    }
}

TEST_F(SimTest, WatchdogCatchesInfiniteLoop)
{
    GpuConfig cfg = smallConfig();
    cfg.max_warp_instrs_per_launch = 10000;
    gpu_ = std::make_unique<GpuDevice>(cfg);
    const size_t ib = isa::instrBytes(gpu_->family());
    std::vector<Instruction> prog = {
        isa::makeBra(-static_cast<int64_t>(ib)), // branch to itself
    };
    EXPECT_THROW(gpu_->launch(oneWarp(place(prog))), DeviceException);
}

TEST_F(SimTest, IllegalGlobalAddressTraps)
{
    std::vector<Instruction> prog;
    prog.push_back(isa::makeMovImm(4, 0)); // null pointer in R4:R5
    prog.push_back(isa::makeMovImm(5, 0));
    prog.push_back(isa::makeLoad(Opcode::LDG, 6, 4, 0));
    prog.push_back(isa::makeExit());
    EXPECT_THROW(gpu_->launch(oneWarp(place(prog))), DeviceException);
}

TEST_F(SimTest, BarrierSynchronizesWarpsThroughShared)
{
    // Warp 0 writes shared[0]=123 before the barrier; warp 1 reads it
    // after and stores to global.
    mem::DevPtr buf = gpu_->memory().alloc(4);
    std::vector<Instruction> prog;
    prog.push_back(isa::makeS2R(4, isa::SpecialReg::WARPID));
    prog.push_back(isa::makeS2R(5, isa::SpecialReg::LANEID));
    // P0 = (warpid==0 && laneid==0): compute laneid+warpid*32==0
    Instruction mad0;
    mad0.op = Opcode::IMAD;
    mad0.mod = isa::modSetDType(0, DType::U32);
    mad0.rd = 6;
    mad0.ra = 4;
    mad0.rb = 7;
    mad0.rc = 5;
    prog.push_back(isa::makeMovImm(7, 32));
    prog.push_back(mad0); // R6 = flat tid
    Instruction setp0;
    setp0.op = Opcode::ISETP;
    setp0.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::EQ), DType::U32);
    setp0.rd = 0;
    setp0.ra = 6;
    setp0.imm = 0;
    prog.push_back(setp0);
    prog.push_back(isa::makeMovImm(8, 123));
    Instruction sts = isa::makeStore(Opcode::STS, isa::kRegZ, 0, 8);
    sts.pred = 0;
    prog.push_back(sts);
    prog.push_back(isa::makeBar());
    // P1 = flat tid == 32 (first lane of warp 1)
    Instruction setp1;
    setp1.op = Opcode::ISETP;
    setp1.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::EQ), DType::U32);
    setp1.rd = 1;
    setp1.ra = 6;
    setp1.imm = 32;
    prog.push_back(setp1);
    Instruction lds = isa::makeLoad(Opcode::LDS, 9, isa::kRegZ, 0);
    lds.pred = 1;
    prog.push_back(lds);
    isa::emitMaterialize32(prog, 10, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 11, static_cast<uint32_t>(buf >> 32));
    Instruction stg = isa::makeStore(Opcode::STG, 10, 0, 9);
    stg.pred = 1;
    prog.push_back(stg);
    prog.push_back(isa::makeExit());

    LaunchParams lp;
    lp.entry_pc = place(prog);
    lp.block[0] = 64; // two warps
    lp.shared_bytes = 64;
    gpu_->launch(lp);
    EXPECT_EQ(gpu_->memory().read32(buf), 123u);
}

TEST_F(SimTest, LocalStackLoadStore)
{
    mem::DevPtr buf = gpu_->memory().alloc(4);
    std::vector<Instruction> prog;
    // push 77 on the stack, read it back
    prog.push_back(isa::makeIAddImm(isa::kAbiSpReg, isa::kAbiSpReg, -8));
    prog.push_back(isa::makeMovImm(4, 77));
    prog.push_back(isa::makeStore(Opcode::STL, isa::kAbiSpReg, 0, 4));
    prog.push_back(isa::makeLoad(Opcode::LDL, 5, isa::kAbiSpReg, 0));
    prog.push_back(isa::makeIAddImm(isa::kAbiSpReg, isa::kAbiSpReg, 8));
    prog.push_back(isa::makeS2R(8, isa::SpecialReg::LANEID));
    Instruction setp0;
    setp0.op = Opcode::ISETP;
    setp0.mod = isa::modSetSetpDType(
        isa::modSetCmp(isa::kModSetpImm, isa::CmpOp::EQ), DType::U32);
    setp0.rd = 0;
    setp0.ra = 8;
    setp0.imm = 0;
    prog.push_back(setp0);
    isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
    Instruction st = isa::makeStore(Opcode::STG, 6, 0, 5);
    st.pred = 0;
    prog.push_back(st);
    prog.push_back(isa::makeExit());

    gpu_->launch(oneWarp(place(prog)));
    EXPECT_EQ(gpu_->memory().read32(buf), 77u);
}

TEST_F(SimTest, StackOverflowTraps)
{
    std::vector<Instruction> prog;
    // Store far below the stack window.
    prog.push_back(isa::makeMovImm(4, 1));
    prog.push_back(
        isa::makeStore(Opcode::STL, isa::kRegZ, 1 << 20, 4));
    prog.push_back(isa::makeExit());
    EXPECT_THROW(gpu_->launch(oneWarp(place(prog))), DeviceException);
}

TEST_F(SimTest, UniqueLineOracleCoalescedVsStrided)
{
    // Coalesced: 32 lanes * 4B = 128B = 1 line.  Strided by 128B: 32
    // lines.  This is the ground truth behind the paper's Figure 6.
    mem::DevPtr buf = gpu_->memory().alloc(32 * 128 + 4);

    auto makeProg = [&](uint32_t stride) {
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
        prog.push_back(isa::makeLoad(Opcode::LDG, 11, 8, 0));
        prog.push_back(isa::makeExit());
        return prog;
    };

    LaunchStats coalesced = gpu_->launch(oneWarp(place(makeProg(4))));
    EXPECT_EQ(coalesced.global_mem_warp_instrs, 1u);
    EXPECT_EQ(coalesced.unique_lines_sum, 1u);

    LaunchStats strided = gpu_->launch(oneWarp(place(makeProg(128))));
    EXPECT_EQ(strided.global_mem_warp_instrs, 1u);
    EXPECT_EQ(strided.unique_lines_sum, 32u);
}

TEST_F(SimTest, CacheStatsRepeatedAccessHits)
{
    mem::DevPtr buf = gpu_->memory().alloc(128);
    auto mkload = [&]() {
        std::vector<Instruction> prog;
        isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
        isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
        prog.push_back(isa::makeLoad(Opcode::LDG, 8, 6, 0));
        prog.push_back(isa::makeLoad(Opcode::LDG, 9, 6, 0));
        prog.push_back(isa::makeExit());
        return prog;
    };
    LaunchStats st = gpu_->launch(oneWarp(place(mkload())));
    EXPECT_EQ(st.l1_misses, 1u);
    EXPECT_EQ(st.l1_hits, 1u);
}

TEST_F(SimTest, MultiCtaGridAndOccupancy)
{
    mem::DevPtr buf = gpu_->memory().alloc(4);
    gpu_->memory().write32(buf, 0);
    std::vector<Instruction> prog;
    isa::emitMaterialize32(prog, 6, static_cast<uint32_t>(buf));
    isa::emitMaterialize32(prog, 7, static_cast<uint32_t>(buf >> 32));
    prog.push_back(isa::makeMovImm(8, 1));
    Instruction atom;
    atom.op = Opcode::ATOM;
    atom.mod = isa::modSetAtomDType(isa::modSetAtomOp(0, isa::AtomOp::ADD),
                                    DType::U32);
    atom.rd = isa::kRegZ;
    atom.ra = 6;
    atom.rb = 8;
    prog.push_back(atom);
    prog.push_back(isa::makeExit());

    LaunchParams lp = oneWarp(place(prog));
    lp.grid[0] = 10;
    lp.block[0] = 64;
    LaunchStats st = gpu_->launch(lp);
    EXPECT_EQ(st.ctas, 10u);
    EXPECT_EQ(gpu_->memory().read32(buf), 640u);
    EXPECT_GT(st.cycles, 0u);

    EXPECT_GT(gpu_->occupancyWarps(32, 0), 0u);
    EXPECT_LE(gpu_->occupancyWarps(255, 0),
              gpu_->occupancyWarps(16, 0));
}

// An empty NVBIT_SIM_* value means unset (docs/API.md): a device built
// under empty values has the config of one built without them, tool
// requests included.
TEST(GpuEnvTest, EmptyValuesMeanUnset)
{
    const char *const kVars[] = {
        "NVBIT_SIM_EXEC",        "NVBIT_SIM_TRACES",
        "NVBIT_SIM_COLD_LAUNCH", "NVBIT_SIM_WATCHDOG_CYCLES",
        "NVBIT_SIM_PC_SAMPLING", "NVBIT_SIM_SANCHECK",
    };
    std::vector<std::pair<const char *, std::string>> saved;
    for (const char *v : kVars) {
        if (const char *val = std::getenv(v))
            saved.emplace_back(v, val);
    }
    obs::Profiler::instance().requestPeriod(64);
    obs::Sanitizer::instance().requestChecks(obs::kSancheckAll);
    GpuConfig cfg;
    cfg.mem_bytes = 1 << 20;
    auto build = [&](bool empty) {
        for (const char *v : kVars) {
            if (empty)
                setenv(v, "", 1);
            else
                unsetenv(v);
        }
        return GpuDevice(cfg).config();
    };
    const GpuConfig unset = build(false);
    const GpuConfig empty = build(true);
    for (const char *v : kVars)
        unsetenv(v);
    for (const auto &[v, val] : saved)
        setenv(v, val.c_str(), 1);
    obs::Profiler::instance().reset();
    obs::Sanitizer::instance().reset();

    EXPECT_EQ(unset.pc_sample_period, 64u);
    EXPECT_EQ(unset.sancheck_mask, obs::kSancheckAll);
    EXPECT_EQ(empty.exec_mode, unset.exec_mode);
    EXPECT_EQ(empty.use_traces, unset.use_traces);
    EXPECT_EQ(empty.cold_launch, unset.cold_launch);
    EXPECT_EQ(empty.watchdog_cycles, unset.watchdog_cycles);
    EXPECT_EQ(empty.pc_sample_period, unset.pc_sample_period);
    EXPECT_EQ(empty.sancheck_mask, unset.sancheck_mask);
}

} // namespace
} // namespace nvbit::sim
