#include "tools/instr_count.hpp"

namespace nvbit::tools {

namespace {

const char *kPtx = R"(
.global .u64 icnt_thread;
.global .u64 icnt_warp;
.func icnt_count(.param .u32 pred)
{
    .reg .u32 %a<8>;
    .reg .u64 %rd<6>;
    .reg .pred %p<3>;
    ld.param.u32 %a1, [pred];
    setp.ne.u32 %p1, %a1, 0;
    vote.ballot.b32 %a2, %p1;
    popc.b32 %a3, %a2;
    vote.ballot.b32 %a4, 1;
    mov.u32 %a5, %laneid;
    mov.u32 %a6, 1;
    shl.b32 %a6, %a6, %a5;
    sub.u32 %a6, %a6, 1;
    and.b32 %a6, %a4, %a6;
    setp.ne.u32 %p2, %a6, 0;
    @%p2 bra SKIP;
    mov.u64 %rd1, icnt_warp;
    mov.u64 %rd2, 1;
    red.global.add.u64 [%rd1], %rd2;
    setp.eq.u32 %p2, %a3, 0;
    @%p2 bra SKIP;
    mov.u64 %rd1, icnt_thread;
    cvt.u64.u32 %rd2, %a3;
    red.global.add.u64 [%rd1], %rd2;
SKIP:
    ret;
}
.func icnt_count_bb(.param .u32 ninstrs)
{
    .reg .u32 %a<8>;
    .reg .u64 %rd<6>;
    .reg .pred %p<3>;
    vote.ballot.b32 %a2, 1;
    popc.b32 %a3, %a2;
    mov.u32 %a5, %laneid;
    mov.u32 %a6, 1;
    shl.b32 %a6, %a6, %a5;
    sub.u32 %a6, %a6, 1;
    and.b32 %a6, %a2, %a6;
    setp.ne.u32 %p2, %a6, 0;
    @%p2 bra SKIP;
    ld.param.u32 %a7, [ninstrs];
    mov.u64 %rd1, icnt_warp;
    cvt.u64.u32 %rd2, %a7;
    red.global.add.u64 [%rd1], %rd2;
    mul.lo.u32 %a3, %a3, %a7;
    mov.u64 %rd1, icnt_thread;
    cvt.u64.u32 %rd2, %a3;
    red.global.add.u64 [%rd1], %rd2;
SKIP:
    ret;
}
)";

} // namespace

InstrCountTool::InstrCountTool(Mode mode) : mode_(mode)
{
    exportDeviceFunctions(kPtx);
    // Both counting functions are the canonical ballot/popc/atomic-add
    // pattern: declare them inlinable so the trace engine can execute
    // the counts at the callsite instead of the trampoline.
    nvbit_probe_desc per_instr;
    per_instr.ballot_guard = true;
    per_instr.warp_counter = "icnt_warp";
    per_instr.thread_counter = "icnt_thread";
    nvbit_declare_inline_probe("icnt_count", per_instr);
    nvbit_probe_desc per_bb;
    per_bb.warp_counter = "icnt_warp";
    per_bb.thread_counter = "icnt_thread";
    per_bb.scale_arg = 0; // ninstrs
    nvbit_declare_inline_probe("icnt_count_bb", per_bb);
}

void
InstrCountTool::instrumentFunction(CUcontext ctx, CUfunction f)
{
    if (mode_ == Mode::PerBasicBlock) {
        for (const auto &bb : nvbit_get_basic_blocks(ctx, f)) {
            if (bb.empty())
                continue;
            nvbit_insert_call(bb.front(), "icnt_count_bb",
                              IPOINT_BEFORE);
            nvbit_add_call_arg_imm32(
                bb.front(), static_cast<uint32_t>(bb.size()));
        }
        return;
    }
    for (Instr *i : nvbit_get_instrs(ctx, f)) {
        nvbit_insert_call(i, "icnt_count", IPOINT_BEFORE);
        nvbit_add_call_arg_guard_pred_val(i);
    }
}

uint64_t
InstrCountTool::threadInstrs() const
{
    uint64_t v = 0;
    nvbit_read_tool_global("icnt_thread", &v, sizeof(v));
    return v;
}

uint64_t
InstrCountTool::warpInstrs() const
{
    uint64_t v = 0;
    nvbit_read_tool_global("icnt_warp", &v, sizeof(v));
    return v;
}

void
InstrCountTool::reset()
{
    uint64_t z = 0;
    nvbit_write_tool_global("icnt_thread", &z, sizeof(z));
    nvbit_write_tool_global("icnt_warp", &z, sizeof(z));
}

} // namespace nvbit::tools
