#include "tools/opcode_histogram.hpp"

#include <algorithm>

namespace nvbit::tools {

namespace {

const char *kPtx = R"(
.global .u64 ohist_counts[64];
.func ohist_count(.param .u32 pred, .param .u32 opidx)
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
    setp.eq.u32 %p2, %a3, 0;
    @%p2 bra SKIP;
    ld.param.u32 %a7, [opidx];
    mov.u64 %rd1, ohist_counts;
    mul.wide.u32 %rd2, %a7, 8;
    add.u64 %rd3, %rd1, %rd2;
    cvt.u64.u32 %rd4, %a3;
    red.global.add.u64 [%rd3], %rd4;
SKIP:
    ret;
}
)";

} // namespace

OpcodeHistogramTool::OpcodeHistogramTool(Mode mode) : mode_(mode)
{
    static_assert(static_cast<size_t>(isa::Opcode::NumOpcodes) <= 64,
                  "device counter array too small");
    exportDeviceFunctions(kPtx);
}

void
OpcodeHistogramTool::instrumentFunction(CUcontext ctx, CUfunction f)
{
    for (Instr *i : nvbit_get_instrs(ctx, f)) {
        nvbit_insert_call(i, "ohist_count", IPOINT_BEFORE);
        nvbit_add_call_arg_guard_pred_val(i);
        nvbit_add_call_arg_imm32(
            i, static_cast<uint32_t>(i->decoded().op));
    }
}

OpcodeCounts
OpcodeHistogramTool::readDevice() const
{
    OpcodeCounts c{};
    nvbit_read_tool_global("ohist_counts", c.data(),
                           c.size() * sizeof(uint64_t));
    return c;
}

void
OpcodeHistogramTool::onLaunchEntry(CUcontext ctx,
                                   cudrv::cuLaunchKernel_params *p)
{
    ++total_launches_;
    current_key_ = {p->f, p->gridDimX, p->gridDimY, p->gridDimZ,
                    p->blockDimX, p->blockDimY, p->blockDimZ};
    if (mode_ == Mode::Full) {
        current_instrumented_ = true;
        return;
    }
    // Sampling: run instrumented only for the first launch with this
    // grid configuration (paper: "we launch the instrumented version
    // only once for each set of unique grid dimension values").
    current_instrumented_ = per_config_.count(current_key_) == 0;
    nvbit_enable_instrumented(ctx, p->f, current_instrumented_, true);
}

void
OpcodeHistogramTool::onLaunchExit(CUcontext, cudrv::cuLaunchKernel_params *,
                                  CUresult status)
{
    if (status != cudrv::CUDA_SUCCESS)
        return;
    if (current_instrumented_) {
        ++inst_launches_;
        OpcodeCounts now = readDevice();
        OpcodeCounts delta{};
        for (size_t i = 0; i < now.size(); ++i) {
            delta[i] = now[i] - snapshot_[i];
            approx_[i] += delta[i];
        }
        snapshot_ = now;
        per_config_[current_key_] = delta;
    } else {
        // Approximate this launch with the recorded sample.
        const OpcodeCounts &sample = per_config_.at(current_key_);
        for (size_t i = 0; i < sample.size(); ++i)
            approx_[i] += sample[i];
    }
}

std::vector<std::pair<std::string, uint64_t>>
OpcodeHistogramTool::topN(size_t n) const
{
    std::vector<std::pair<std::string, uint64_t>> all;
    for (size_t i = 0; i < approx_.size(); ++i) {
        if (approx_[i] > 0) {
            all.emplace_back(
                isa::opcodeName(static_cast<isa::Opcode>(i)),
                approx_[i]);
        }
    }
    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    if (all.size() > n)
        all.resize(n);
    return all;
}

double
OpcodeHistogramTool::shareErrorPct(const OpcodeCounts &exact,
                                   const OpcodeCounts &approx)
{
    uint64_t te = 0, ta = 0;
    for (size_t i = 0; i < exact.size(); ++i) {
        te += exact[i];
        ta += approx[i];
    }
    if (te == 0 || ta == 0)
        return 0.0;
    double sum = 0.0;
    unsigned cats = 0;
    for (size_t i = 0; i < exact.size(); ++i) {
        if (exact[i] == 0 && approx[i] == 0)
            continue;
        double fe = static_cast<double>(exact[i]) /
                    static_cast<double>(te);
        double fa = static_cast<double>(approx[i]) /
                    static_cast<double>(ta);
        sum += std::abs(fe - fa) * 100.0;
        ++cats;
    }
    return cats == 0 ? 0.0 : sum / cats;
}

} // namespace nvbit::tools
