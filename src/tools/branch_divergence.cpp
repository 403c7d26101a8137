#include "tools/branch_divergence.hpp"

#include "common/logging.hpp"

namespace nvbit::tools {

namespace {

/**
 * Per-site device counters: executions and divergent executions.  A
 * branch diverges when the set of guard-passing threads is neither
 * empty nor the full active set.
 */
const char *kPtx = R"(
.global .u64 bdiv_exec[256];
.global .u64 bdiv_div[256];
.func bdiv_probe(.param .u32 pred, .param .u32 site)
{
    .reg .u32 %a<10>;
    .reg .u64 %rd<8>;
    .reg .pred %p<4>;
    ld.param.u32 %a1, [pred];
    setp.ne.u32 %p1, %a1, 0;
    vote.ballot.b32 %a2, %p1;      // threads taking the branch
    vote.ballot.b32 %a3, 1;        // active threads

    // Leader = lowest active lane.
    mov.u32 %a4, %laneid;
    mov.u32 %a5, 1;
    shl.b32 %a5, %a5, %a4;
    sub.u32 %a5, %a5, 1;
    and.b32 %a5, %a3, %a5;
    setp.ne.u32 %p2, %a5, 0;
    @%p2 bra SKIP;

    ld.param.u32 %a6, [site];
    mov.u64 %rd1, bdiv_exec;
    mul.wide.u32 %rd2, %a6, 8;
    add.u64 %rd3, %rd1, %rd2;
    mov.u64 %rd4, 1;
    red.global.add.u64 [%rd3], %rd4;

    setp.eq.u32 %p3, %a2, 0;       // nobody takes it: uniform
    @%p3 bra SKIP;
    setp.eq.u32 %p3, %a2, %a3;     // everybody takes it: uniform
    @%p3 bra SKIP;
    mov.u64 %rd1, bdiv_div;
    add.u64 %rd3, %rd1, %rd2;
    red.global.add.u64 [%rd3], %rd4;
SKIP:
    ret;
}
)";

} // namespace

BranchDivergenceTool::BranchDivergenceTool()
{
    exportDeviceFunctions(kPtx);
}

void
BranchDivergenceTool::instrumentFunction(CUcontext ctx, CUfunction f)
{
    for (Instr *i : nvbit_get_instrs(ctx, f)) {
        // Only conditional relative branches can split a warp.
        if (!i->decoded().isRelativeBranch() || !i->hasPred())
            continue;
        if (static_sites_.size() >= kMaxSites) {
            warn("branch-divergence tool: site table full; "
                 "skipping %s", i->getSass());
            return;
        }
        uint32_t site = static_cast<uint32_t>(static_sites_.size());
        static_sites_.push_back(
            {nvbit_get_func_name(ctx, f), i->getIdx(), i->getSass(),
             0, 0});
        nvbit_insert_call(i, "bdiv_probe", IPOINT_BEFORE);
        nvbit_add_call_arg_guard_pred_val(i);
        nvbit_add_call_arg_imm32(i, site);
    }
}

std::vector<BranchDivergenceTool::Site>
BranchDivergenceTool::sites() const
{
    std::vector<Site> out = static_sites_;
    std::vector<uint64_t> exec(kMaxSites, 0), div(kMaxSites, 0);
    nvbit_read_tool_global("bdiv_exec", exec.data(),
                           kMaxSites * sizeof(uint64_t));
    nvbit_read_tool_global("bdiv_div", div.data(),
                           kMaxSites * sizeof(uint64_t));
    for (size_t i = 0; i < out.size(); ++i) {
        out[i].executions = exec[i];
        out[i].divergent = div[i];
    }
    return out;
}

uint64_t
BranchDivergenceTool::totalBranches() const
{
    uint64_t sum = 0;
    for (const Site &s : sites())
        sum += s.executions;
    return sum;
}

uint64_t
BranchDivergenceTool::divergentBranches() const
{
    uint64_t sum = 0;
    for (const Site &s : sites())
        sum += s.divergent;
    return sum;
}

} // namespace nvbit::tools
