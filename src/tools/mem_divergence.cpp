#include "tools/mem_divergence.hpp"

namespace nvbit::tools {

namespace {

/**
 * Divergence-measuring device function.  Mirrors the paper's Listing 8
 * but accumulates exact integer counts: each warp-level access adds 1
 * to mdiv_instrs and its number of distinct 32-byte sectors to
 * mdiv_sectors (the ratio is the paper's "average cache lines
 * requested per memory instruction", at the sector granularity the
 * memory system moves data in).
 */
const char *kPtx = R"(
.global .u64 mdiv_instrs;
.global .u64 mdiv_sectors;
.func mdiv_probe(.param .u32 pred, .param .u32 lo, .param .u32 hi,
                 .param .u32 off)
{
    .reg .u32 %a<10>;
    .reg .u64 %rd<10>;
    .reg .pred %p<4>;
    ld.param.u32 %a1, [pred];
    setp.ne.u32 %p1, %a1, 0;
    vote.ballot.b32 %a2, %p1;      // participating lanes
    @!%p1 bra SKIP;                // guard-false threads do not access

    // Reconstruct the address: (hi:lo) + sign-extended displacement.
    ld.param.u32 %a3, [lo];
    ld.param.u32 %a4, [hi];
    cvt.u64.u32 %rd1, %a3;
    cvt.u64.u32 %rd2, %a4;
    shl.b64 %rd2, %rd2, 32;
    add.u64 %rd3, %rd1, %rd2;
    ld.param.u32 %a5, [off];
    cvt.s64.s32 %rd4, %a5;
    add.u64 %rd3, %rd3, %rd4;
    shr.u64 %rd5, %rd3, 5;         // memory sector (32 B)

    // Group lanes touching the same sector.
    match.any.sync.b64 %a6, %rd5;
    mov.u32 %a7, %laneid;
    mov.u32 %a8, 1;
    shl.b32 %a8, %a8, %a7;
    sub.u32 %a8, %a8, 1;           // mask of lower lanes
    and.b32 %a9, %a6, %a8;
    setp.eq.u32 %p2, %a9, 0;       // sector leader?
    vote.ballot.b32 %a6, %p2;      // one bit per distinct sector
    popc.b32 %a6, %a6;

    // Warp leader (lowest participating lane) does the bookkeeping.
    and.b32 %a9, %a2, %a8;
    setp.ne.u32 %p3, %a9, 0;
    @%p3 bra SKIP;
    mov.u64 %rd6, mdiv_instrs;
    mov.u64 %rd7, 1;
    red.global.add.u64 [%rd6], %rd7;
    mov.u64 %rd6, mdiv_sectors;
    cvt.u64.u32 %rd7, %a6;
    red.global.add.u64 [%rd6], %rd7;
SKIP:
    ret;
}
)";

} // namespace

MemDivergenceTool::MemDivergenceTool()
{
    exportDeviceFunctions(kPtx);
}

void
MemDivergenceTool::instrumentFunction(CUcontext ctx, CUfunction f)
{
    for (Instr *i : nvbit_get_instrs(ctx, f)) {
        if (i->getMemOpType() != Instr::GLOBAL)
            continue;
        // Find the memory-reference operand, as in the paper's loop
        // over getNumOperands()/getOperand(n).
        for (int n = 0; n < i->getNumOperands(); ++n) {
            const Instr::operand_t *op = i->getOperand(n);
            if (op->type != Instr::MREF)
                continue;
            int base = static_cast<int>(op->val[0]);
            nvbit_insert_call(i, "mdiv_probe", IPOINT_BEFORE);
            nvbit_add_call_arg_guard_pred_val(i);
            nvbit_add_call_arg_reg_val(i, base);
            nvbit_add_call_arg_reg_val(i, base + 1);
            nvbit_add_call_arg_imm32(
                i, static_cast<uint32_t>(op->val[1]));
        }
    }
}

uint64_t
MemDivergenceTool::memInstrs() const
{
    uint64_t v = 0;
    nvbit_read_tool_global("mdiv_instrs", &v, sizeof(v));
    return v;
}

uint64_t
MemDivergenceTool::uniqueSectors() const
{
    uint64_t v = 0;
    nvbit_read_tool_global("mdiv_sectors", &v, sizeof(v));
    return v;
}

double
MemDivergenceTool::divergence() const
{
    uint64_t n = memInstrs();
    return n == 0 ? 0.0
                  : static_cast<double>(uniqueSectors()) /
                        static_cast<double>(n);
}

void
MemDivergenceTool::reset()
{
    uint64_t z = 0;
    nvbit_write_tool_global("mdiv_instrs", &z, sizeof(z));
    nvbit_write_tool_global("mdiv_sectors", &z, sizeof(z));
}

} // namespace nvbit::tools
