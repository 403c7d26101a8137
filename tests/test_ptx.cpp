/**
 * @file
 * Unit tests for the PTX-dialect compiler: parsing, code generation,
 * register allocation, and metadata (params, relocs, line info).
 */
#include <gtest/gtest.h>

#include "isa/abi.hpp"
#include "ptx/compiler.hpp"

namespace nvbit::ptx {
namespace {

using isa::ArchFamily;
using isa::Opcode;

const char *kVecAdd = R"(
.version 1.0
.target sm_50
.visible .entry vecadd(.param .u64 A, .param .u64 B, .param .u64 C,
                       .param .u32 n)
{
    .reg .u32 %r<8>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;
    mov.u32 %r1, %ctaid.x;
    mov.u32 %r2, %ntid.x;
    mad.lo.u32 %r4, %r1, %r2, %tid.x;
    ld.param.u32 %r5, [n];
    setp.ge.u32 %p1, %r4, %r5;
    @%p1 bra DONE;
    ld.param.u64 %rd1, [A];
    ld.param.u64 %rd2, [B];
    ld.param.u64 %rd3, [C];
    mul.wide.u32 %rd4, %r4, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.u64 %rd6, %rd2, %rd4;
    ld.global.f32 %f2, [%rd6];
    add.f32 %f3, %f1, %f2;
    add.u64 %rd7, %rd3, %rd4;
    st.global.f32 [%rd7], %f3;
DONE:
    exit;
}
)";

TEST(PtxCompile, VecAddStructure)
{
    CompiledModule m = compile(kVecAdd, ArchFamily::SM5x);
    ASSERT_EQ(m.functions.size(), 1u);
    const CompiledFunction &f = m.functions[0];
    EXPECT_EQ(f.name, "vecadd");
    EXPECT_TRUE(f.is_entry);
    ASSERT_EQ(f.params.size(), 4u);
    EXPECT_EQ(f.params[0].bank0_offset, 0u);
    EXPECT_EQ(f.params[1].bank0_offset, 8u);
    EXPECT_EQ(f.params[2].bank0_offset, 16u);
    EXPECT_EQ(f.params[3].bank0_offset, 24u);
    EXPECT_EQ(f.param_bytes, 28u);
    EXPECT_GT(f.num_regs, 4u);
    EXPECT_LT(f.num_regs, 64u);
    ASSERT_FALSE(f.code.empty());
    EXPECT_EQ(f.code.back().op, Opcode::EXIT);
    EXPECT_TRUE(f.relocs.empty());
    EXPECT_FALSE(f.uses_device_api);
}

TEST(PtxCompile, CompilesForBothFamilies)
{
    for (ArchFamily fam : {ArchFamily::SM5x, ArchFamily::SM7x}) {
        CompiledModule m = compile(kVecAdd, fam);
        EXPECT_EQ(m.family, fam);
        EXPECT_EQ(m.functions.size(), 1u);
    }
}

TEST(PtxCompile, BigImmediateUsesLuiOrPair)
{
    const char *src = R"(
.visible .entry k() {
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    mov.u32 %r1, 0x12345678;
    mov.u64 %rd1, 81985529216486895;
    exit;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    const CompiledFunction &f = m.functions[0];
    int luis = 0;
    for (const auto &in : f.code)
        if (in.op == Opcode::LUI)
            ++luis;
    EXPECT_GE(luis, 3); // one for the u32, two for the u64 halves
}

TEST(PtxCompile, DeviceFunctionWithCall)
{
    const char *src = R"(
.func (.param .u32 out) square(.param .u32 x)
{
    .reg .u32 %a<3>;
    ld.param.u32 %a1, [x];
    mul.lo.u32 %a2, %a1, %a1;
    st.param.u32 [out], %a2;
    ret;
}
.visible .entry k(.param .u64 dst)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<2>;
    mov.u32 %r1, %tid.x;
    call (%r2), square, (%r1);
    ld.param.u64 %rd1, [dst];
    st.global.u32 [%rd1], %r2;
    exit;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    ASSERT_EQ(m.functions.size(), 2u);
    const CompiledFunction *k = m.findFunction("k");
    const CompiledFunction *sq = m.findFunction("square");
    ASSERT_NE(k, nullptr);
    ASSERT_NE(sq, nullptr);
    EXPECT_FALSE(sq->is_entry);
    ASSERT_EQ(k->relocs.size(), 1u);
    EXPECT_EQ(k->relocs[0].callee, "square");
    EXPECT_EQ(k->code[k->relocs[0].instr_index].op, Opcode::CAL);
    ASSERT_EQ(k->related.size(), 1u);
    EXPECT_EQ(k->related[0], "square");
    EXPECT_GT(k->frame_bytes, 0u); // call-save area allocated
    EXPECT_EQ(sq->code.back().op, Opcode::RET);
}

TEST(PtxCompile, NvbitBuiltinCallSetsDeviceApiFlag)
{
    const char *src = R"(
.func ifunc(.param .u32 regnum)
{
    .reg .u32 %a<3>;
    ld.param.u32 %a1, [regnum];
    call (%a2), nvbit_read_reg, (%a1);
    ret;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    EXPECT_TRUE(m.functions[0].uses_device_api);
    ASSERT_EQ(m.functions[0].relocs.size(), 1u);
    EXPECT_EQ(m.functions[0].relocs[0].callee, "nvbit_read_reg");
}

TEST(PtxCompile, GlobalsGetBank1AddressSlots)
{
    const char *src = R"(
.global .u32 counter;
.global .f32 table[16];
.const .u32 cdata[4] = {1, 2, 3, 4};
.visible .entry k()
{
    .reg .u32 %r<3>;
    .reg .u64 %rd<2>;
    mov.u64 %rd1, counter;
    atom.global.add.u32 %r1, [%rd1], 1;
    ld.const.u32 %r2, [cdata+4];
    exit;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    ASSERT_EQ(m.globals.size(), 2u);
    EXPECT_EQ(m.globals[0].name, "counter");
    EXPECT_EQ(m.globals[0].size_bytes, 4u);
    EXPECT_EQ(m.globals[1].size_bytes, 64u);
    // Slots follow the 16 bytes of const data, 8-byte aligned.
    EXPECT_EQ(m.globals[0].addr_slot, 16u);
    EXPECT_EQ(m.globals[1].addr_slot, 24u);
    EXPECT_EQ(m.bank1.size(), 32u);
    EXPECT_EQ(m.bank1[0], 1u); // const initialiser present
    EXPECT_EQ(m.bank1[4], 2u);
}

TEST(PtxCompile, LineInfoFromLocDirectives)
{
    const char *src = R"(
.file 1 "kernel.cu"
.visible .entry k()
{
    .reg .u32 %r<3>;
    .loc 1 10 0
    mov.u32 %r1, 5;
    .loc 1 12 0
    add.u32 %r2, %r1, 1;
    exit;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    ASSERT_EQ(m.files.size(), 1u);
    EXPECT_EQ(m.files[0], "kernel.cu");
    const CompiledFunction &f = m.functions[0];
    ASSERT_GE(f.line_info.size(), 2u);
    EXPECT_EQ(f.line_info[0].line, 10u);
    EXPECT_EQ(f.line_info[1].line, 12u);
}

TEST(PtxCompile, SharedAndLocalVariables)
{
    const char *src = R"(
.visible .entry k()
{
    .reg .u32 %r<6>;
    .shared .f32 tile[64];
    .local .b8 scratch[32];
    mov.u32 %r1, tile;
    mov.u32 %r2, %tid.x;
    shl.b32 %r3, %r2, 2;
    add.u32 %r4, %r1, %r3;
    st.shared.u32 [%r4], %r2;
    bar.sync 0;
    ld.shared.u32 %r5, [tile+4];
    st.local.u32 [scratch+8], %r5;
    exit;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    const CompiledFunction &f = m.functions[0];
    EXPECT_EQ(f.shared_bytes, 256u);
    EXPECT_GE(f.frame_bytes, 32u);
}

TEST(PtxCompile, LoopsAndPredicatesAllocateCorrectly)
{
    const char *src = R"(
.visible .entry k(.param .u64 dst, .param .u32 n)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [dst];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, 0;
    mov.u32 %r3, 0;
LOOP:
    add.u32 %r3, %r3, %r2;
    add.u32 %r2, %r2, 1;
    setp.lt.u32 %p1, %r2, %r1;
    @%p1 bra LOOP;
    st.global.u32 [%rd1], %r3;
    exit;
}
)";
    CompiledModule m = compile(src, ArchFamily::SM5x);
    const CompiledFunction &f = m.functions[0];
    // The backward branch must have a negative offset.
    bool found_backward = false;
    for (const auto &in : f.code)
        if (in.op == Opcode::BRA && in.imm < 0)
            found_backward = true;
    EXPECT_TRUE(found_backward);
}

// --- Error paths -----------------------------------------------------------

TEST(PtxErrors, UndeclaredRegister)
{
    const char *src = ".visible .entry k() { mov.u32 %r1, 0; exit; }";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
}

TEST(PtxErrors, UnknownInstruction)
{
    const char *src = R"(
.visible .entry k() { .reg .u32 %r<2>; frobnicate.u32 %r1, 0; exit; }
)";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
}

TEST(PtxErrors, DivUnsupportedWithHint)
{
    const char *src = R"(
.visible .entry k() { .reg .u32 %r<3>; div.u32 %r1, %r2, %r2; exit; }
)";
    try {
        compile(src, ArchFamily::SM5x);
        FAIL() << "expected CompileError";
    } catch (const CompileError &e) {
        EXPECT_NE(e.message.find("div"), std::string::npos);
    }
}

TEST(PtxErrors, DuplicateFunction)
{
    const char *src = R"(
.visible .entry k() { exit; }
.visible .entry k() { exit; }
)";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
}

TEST(PtxErrors, WrongRegisterClass)
{
    const char *src = R"(
.visible .entry k() {
    .reg .u32 %r<2>;
    .reg .u64 %rd<2>;
    add.u32 %r1, %rd1, 1;
    exit;
}
)";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
}

TEST(PtxErrors, PredicateExhaustion)
{
    // Eight simultaneously live predicates cannot be allocated (P0-P6).
    std::string src = R"(
.visible .entry k(.param .u32 n) {
    .reg .u32 %r<2>;
    .reg .pred %p<9>;
    ld.param.u32 %r1, [n];
)";
    for (int i = 1; i <= 8; ++i)
        src += "    setp.eq.u32 %p" + std::to_string(i) + ", %r1, " +
               std::to_string(i) + ";\n";
    // Keep all eight live: use them afterwards.
    for (int i = 1; i <= 8; ++i)
        src += "    @%p" + std::to_string(i) + " bra DONE;\n";
    src += "DONE:\n    exit;\n}\n";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
}

/** Source line of the CompileError @p src raises, or 0 if none. */
int
errorLine(const std::string &src)
{
    try {
        compile(src, ArchFamily::SM5x);
    } catch (const CompileError &e) {
        return e.line;
    }
    return 0;
}

TEST(PtxErrors, UndefinedBranchLabel)
{
    const char *src = R"(
.visible .entry k() {
    .reg .pred %p<2>;
    @%p1 bra NOWHERE;
    exit;
}
)";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
    EXPECT_EQ(errorLine(src), 4);
}

// A register range is expanded name by name, so an unbounded count
// would never finish.
TEST(PtxErrors, RegisterRangePastCap)
{
    const char *src = R"(
.visible .entry k() {
    .reg .f32 %f<99999999999>;
    exit;
}
)";
    EXPECT_THROW(compile(src, ArchFamily::SM5x), CompileError);
    EXPECT_EQ(errorLine(src), 3);
    EXPECT_EQ(errorLine(".visible .entry k() {\n.reg .u32 %r<" +
                       std::to_string(kMaxRegisters + 1) +
                       ">;\nexit;\n}\n"),
              2);
}

// Sizes must neither wrap (4 x 2^62 + 4 is 4 in 64 bits) nor narrow
// to the 32-bit shared-memory and frame sizes.
TEST(PtxErrors, ArraySizesPastCaps)
{
    const char *wrap = R"(
.global .b32 g[4611686018427387905];
.visible .entry k() { exit; }
)";
    EXPECT_THROW(compile(wrap, ArchFamily::SM5x), CompileError);
    EXPECT_EQ(errorLine(wrap), 2);
    EXPECT_EQ(errorLine(R"(
.visible .entry k() {
    .shared .b8 s[99999999999];
    exit;
}
)"),
              3);
    // Two variables, so the per-function caps apply to the total.
    auto kernelWith = [](const std::string &space, uint64_t bytes) {
        return ".visible .entry k() {\n" + space + " .b8 a[16];\n" +
               space + " .b8 b[" + std::to_string(bytes - 16) +
               "];\nexit;\n}\n";
    };
    EXPECT_EQ(errorLine(kernelWith(".shared", kMaxSharedBytes)), 0);
    EXPECT_EQ(errorLine(kernelWith(".shared", kMaxSharedBytes + 1)), 3);
    EXPECT_EQ(errorLine(kernelWith(".local", kMaxLocalBytes)), 0);
    EXPECT_EQ(errorLine(kernelWith(".local", kMaxLocalBytes + 1)), 3);
    std::string consts =
        ".const .b8 c[" + std::to_string(kMaxConstBytes) + "];\n" +
        ".global .u32 g;\n.visible .entry k() { exit; }\n";
    EXPECT_EQ(errorLine(consts), 2);
}

} // namespace
} // namespace nvbit::ptx
