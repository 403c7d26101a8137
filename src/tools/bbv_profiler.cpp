#include "tools/bbv_profiler.hpp"

#include <cstdio>
#include <sstream>

#include "common/logging.hpp"
#include "driver/api.hpp"

namespace nvbit::tools {

namespace {

/**
 * Device side.  `bbv_buf` points at one u64 counter per block id.
 *
 * `bbv_bb` is the fast path for blocks with no guard-predicated
 * instructions: the lowest active lane adds `popc(active) * ninstrs`
 * to the block's counter — exact, because every active thread
 * executes every instruction of such a block.
 *
 * `bbv_probe` is the per-instruction path for predicated blocks: it
 * ballots the guard predicate and the lowest active lane (whether or
 * not its own guard passed) adds the ballot's popcount.
 */
const char *kPtx = R"(
.global .u64 bbv_buf;
.func bbv_bb(.param .u32 bbid, .param .u32 ninstrs)
{
    .reg .u32 %a<8>;
    .reg .u64 %rd<5>;
    .reg .pred %p<2>;
    vote.ballot.b32 %a2, 1;
    popc.b32 %a3, %a2;
    mov.u32 %a5, %laneid;
    mov.u32 %a6, 1;
    shl.b32 %a6, %a6, %a5;
    sub.u32 %a6, %a6, 1;
    and.b32 %a6, %a2, %a6;
    setp.ne.u32 %p1, %a6, 0;
    @%p1 bra SKIP;                 // not the lowest active lane
    ld.param.u32 %a7, [ninstrs];
    mul.lo.u32 %a3, %a3, %a7;
    ld.param.u32 %a4, [bbid];
    mov.u64 %rd1, bbv_buf;
    ld.global.u64 %rd1, [%rd1];
    cvt.u64.u32 %rd2, %a4;
    shl.b64 %rd2, %rd2, 3;
    add.u64 %rd1, %rd1, %rd2;
    cvt.u64.u32 %rd3, %a3;
    red.global.add.u64 [%rd1], %rd3;
SKIP:
    ret;
}
.func bbv_probe(.param .u32 pred, .param .u32 bbid)
{
    .reg .u32 %a<8>;
    .reg .u64 %rd<5>;
    .reg .pred %p<3>;
    ld.param.u32 %a1, [pred];
    setp.ne.u32 %p1, %a1, 0;
    vote.ballot.b32 %a2, %p1;      // guard-passing lanes
    popc.b32 %a3, %a2;
    vote.ballot.b32 %a4, 1;        // active lanes
    mov.u32 %a5, %laneid;
    mov.u32 %a6, 1;
    shl.b32 %a6, %a6, %a5;
    sub.u32 %a6, %a6, 1;
    and.b32 %a6, %a4, %a6;
    setp.ne.u32 %p2, %a6, 0;
    @%p2 bra SKIP;                 // not the lowest active lane
    setp.eq.u32 %p2, %a3, 0;
    @%p2 bra SKIP;                 // nobody passed the guard
    ld.param.u32 %a7, [bbid];
    mov.u64 %rd1, bbv_buf;
    ld.global.u64 %rd1, [%rd1];
    cvt.u64.u32 %rd2, %a7;
    shl.b64 %rd2, %rd2, 3;
    add.u64 %rd1, %rd1, %rd2;
    cvt.u64.u32 %rd3, %a3;
    red.global.add.u64 [%rd1], %rd3;
SKIP:
    ret;
}
)";

} // namespace

BbvProfiler::BbvProfiler() : BbvProfiler(Options{}) {}

BbvProfiler::BbvProfiler(Options opts) : opts_(std::move(opts))
{
    if (opts_.interval_launches == 0)
        opts_.interval_launches = 1;
    exportDeviceFunctions(kPtx);
    // Both probes are leader-elected popc/atomic-add into the bbv_buf
    // table: declare them inlinable for the trace engine.
    nvbit_probe_desc block_probe;
    block_probe.table_ptr = "bbv_buf";
    block_probe.index_arg = 0; // bbid
    block_probe.scale_arg = 1; // ninstrs
    nvbit_declare_inline_probe("bbv_bb", block_probe);
    nvbit_probe_desc instr_probe;
    instr_probe.ballot_guard = true;
    instr_probe.table_ptr = "bbv_buf";
    instr_probe.index_arg = 1; // bbid (arg 0 is the guard)
    nvbit_declare_inline_probe("bbv_probe", instr_probe);
}

void
BbvProfiler::nvbit_at_ctx_init(CUcontext)
{
    using namespace cudrv;
    size_t bytes =
        (static_cast<size_t>(opts_.max_blocks) + 1) * sizeof(uint64_t);
    checkCu(cuMemAlloc(&counters_, bytes), "bbv counter table");
    checkCu(cuMemsetD8(counters_, 0, bytes), "bbv counter zero");
    nvbit_write_tool_global("bbv_buf", &counters_, sizeof(counters_));
}

void
BbvProfiler::instrumentFunction(CUcontext ctx, CUfunction f)
{
    std::string fname = nvbit_get_func_name(ctx, f);
    for (const auto &bb : nvbit_get_basic_blocks(ctx, f)) {
        if (bb.empty())
            continue;
        // A block's identity is (function name, code offset): when the
        // app reloads / re-JITs the same module, its blocks keep their
        // ids, so every interval of the same phase lands on the same
        // BBV dimensions regardless of which load executed it.
        std::pair<std::string, uint64_t> sig{fname,
                                             bb.front()->getOffset()};
        uint32_t id;
        if (auto it = stable_ids_.find(sig); it != stable_ids_.end()) {
            id = it->second;
        } else {
            if (next_id_ > opts_.max_blocks) {
                ++overflowed_;
                continue;
            }
            id = next_id_++;
            stable_ids_.emplace(sig, id);
            bool uniform = true;
            for (Instr *i : bb)
                if (i->hasPred())
                    uniform = false;
            BlockInfo info;
            info.id = id;
            info.function = fname;
            info.offset = sig.second;
            info.ninstrs = static_cast<uint32_t>(bb.size());
            info.uniform = uniform;
            blocks_.push_back(std::move(info));
        }
        bool uniform = blocks_[id - 1].uniform;

        if (uniform) {
            nvbit_insert_call(bb.front(), "bbv_bb", IPOINT_BEFORE);
            nvbit_add_call_arg_imm32(bb.front(), id);
            nvbit_add_call_arg_imm32(
                bb.front(), static_cast<uint32_t>(bb.size()));
        } else {
            for (Instr *i : bb) {
                nvbit_insert_call(i, "bbv_probe", IPOINT_BEFORE);
                nvbit_add_call_arg_guard_pred_val(i);
                nvbit_add_call_arg_imm32(i, id);
            }
        }
    }
}

void
BbvProfiler::harvestInterval()
{
    if (counters_ == 0 || next_id_ == 1) {
        intervals_.emplace_back();
        return;
    }
    size_t n = next_id_; // ids 1..next_id_-1, slot 0 unused
    std::vector<uint64_t> counts(n, 0);
    cudrv::checkCu(cudrv::cuMemcpyDtoH(counts.data(), counters_,
                                       n * sizeof(uint64_t)),
                   "bbv harvest");
    Interval iv;
    for (uint32_t id = 1; id < n; ++id)
        if (counts[id] != 0)
            iv.emplace_back(id, counts[id]);
    intervals_.push_back(std::move(iv));
    cudrv::checkCu(cudrv::cuMemsetD8(counters_, 0,
                                     n * sizeof(uint64_t)),
                   "bbv reset");
}

void
BbvProfiler::onLaunchExit(CUcontext, cudrv::cuLaunchKernel_params *,
                          CUresult status)
{
    if (status != cudrv::CUDA_SUCCESS)
        return;
    if (++launches_in_interval_ >= opts_.interval_launches) {
        harvestInterval();
        launches_in_interval_ = 0;
    }
}

void
BbvProfiler::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;
    if (launches_in_interval_ > 0) {
        harvestInterval();
        launches_in_interval_ = 0;
    }
    if (!opts_.output_prefix.empty())
        writeOutputs();
}

void
BbvProfiler::nvbit_at_ctx_term(CUcontext)
{
    finalize();
}

void
BbvProfiler::nvbit_at_term()
{
    // Apps that never destroy their context still get their outputs
    // written while the driver (which harvesting needs) is alive.
    finalize();
}

uint64_t
BbvProfiler::intervalInstrTotal(size_t i) const
{
    uint64_t total = 0;
    for (const auto &[id, count] : intervals_.at(i))
        total += count;
    return total;
}

std::string
BbvProfiler::simpointLine(size_t i) const
{
    std::ostringstream os;
    os << "T";
    for (const auto &[id, count] : intervals_.at(i))
        os << ":" << id << ":" << count << " ";
    return os.str();
}

void
BbvProfiler::writeOutputs() const
{
    std::string bb_path = opts_.output_prefix + ".bb";
    if (std::FILE *f = std::fopen(bb_path.c_str(), "w")) {
        for (size_t i = 0; i < intervals_.size(); ++i)
            std::fprintf(f, "%s\n", simpointLine(i).c_str());
        std::fclose(f);
    } else {
        warn("bbv: cannot write %s", bb_path.c_str());
    }
    std::string map_path = opts_.output_prefix + ".bbmap";
    if (std::FILE *f = std::fopen(map_path.c_str(), "w")) {
        std::fprintf(f, "# id,function,offset,ninstrs,probe\n");
        for (const BlockInfo &b : blocks_)
            std::fprintf(f, "%u,%s,0x%llx,%u,%s\n", b.id,
                         b.function.c_str(),
                         static_cast<unsigned long long>(b.offset),
                         b.ninstrs, b.uniform ? "block" : "instr");
        std::fclose(f);
    } else {
        warn("bbv: cannot write %s", map_path.c_str());
    }
}

} // namespace nvbit::tools
