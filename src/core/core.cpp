#include "core/core.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "core/builtins.hpp"
#include "isa/abi.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "ptx/compiler.hpp"

namespace nvbit::core {

using cudrv::CUcontext;
using cudrv::CUfunction;
using cudrv::CUfunc_st;
using isa::Instruction;
using isa::Opcode;

NvbitCore &
NvbitCore::instance()
{
    static NvbitCore core;
    return core;
}

// --- Injection ---------------------------------------------------------

void
NvbitCore::inject(NvbitTool *tool)
{
    NVBIT_ASSERT(!injected_, "an NVBit tool is already injected; only "
                             "one tool can be used per application run");
    tool_ = tool;
    injected_ = true;
    cudrv::setDriverInterposer(&NvbitCore::interposerThunk, this);
    // Let PC samples and sanitizer findings attribute pcs to tool vs
    // app code through the same maps fault attribution uses.
    obs::setOriginResolver(
        [this](uint64_t pc, const std::vector<uint64_t> &ret_stack,
               obs::OriginInfo &out) {
            resolvePcOrigin(pc, ret_stack, out.tool, out.app_pc,
                            &out.func, &out.func_base);
        });
}

void
NvbitCore::uninject()
{
    if (!injected_)
        return;
    // Publish this run's JIT decomposition (paper Figure 5) before
    // the stats are cleared; wall-clock, hence Volatile.
    {
        obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
        const obs::Stability v = obs::Stability::Volatile;
        mr.add("core.jit_retrieve_ns", jit_.retrieve_ns, v);
        mr.add("core.jit_disassemble_ns", jit_.disassemble_ns, v);
        mr.add("core.jit_lift_ns", jit_.lift_ns, v);
        mr.add("core.jit_codegen_ns", jit_.codegen_ns, v);
        mr.add("core.jit_swap_ns", jit_.swap_ns, v);
    }
    cudrv::setDriverInterposer(nullptr, nullptr);
    obs::setOriginResolver(nullptr);
    tool_ = nullptr;
    injected_ = false;
    hal_.reset();
    init_ctx_ = nullptr;
    tool_module_ = nullptr;
    builtin_syms_.clear();
    builtin_ranges_.clear();
    save_addr_.clear();
    restore_addr_.clear();
    fstate_.clear();
    instr_owner_.clear();
    probe_decls_.clear();
    jit_ = JitStats{};
}

void
NvbitCore::interposerThunk(void *user, CUcontext ctx, bool is_exit,
                           CallbackId cbid, const char *name,
                           void *params, CUresult *status)
{
    static_cast<NvbitCore *>(user)->onDriverCall(ctx, is_exit, cbid,
                                                 name, params, status);
}

void
NvbitCore::onDriverCall(CUcontext ctx, bool is_exit, CallbackId cbid,
                        const char *name, void *params, CUresult *status)
{
    // Forward to the tool first (paper: code generation happens "at
    // the exit of the CUDA driver callback, if instrumentation was
    // applied").  Component (4) is the user's own code: time spent
    // inside NVBit APIs the callback invokes (retrieve/disassemble/
    // lift/swap) is attributed to those components, not to the user.
    if (tool_) {
        auto nestedNs = [this] {
            return jit_.retrieve_ns + jit_.disassemble_ns +
                   jit_.lift_ns + jit_.codegen_ns + jit_.swap_ns;
        };
        uint64_t nested_before = nestedNs();
        uint64_t t0 = nowNs();
        tool_->nvbit_at_cuda_driver_call(ctx, is_exit, cbid, name,
                                         params, status);
        uint64_t elapsed = nowNs() - t0;
        uint64_t nested = nestedNs() - nested_before;
        uint64_t net = elapsed > nested ? elapsed - nested : 0;
        jit_.user_callback_ns += net;
        obs::MetricsRegistry::instance().add(
            "core.tool_callback_ns", net, obs::Stability::Volatile);
    }

    switch (cbid) {
      case CallbackId::cuCtxCreate:
        if (is_exit && *status == cudrv::CUDA_SUCCESS) {
            auto *p = static_cast<cudrv::cuCtxCreate_params *>(params);
            initForContext(*p->pctx);
            if (tool_)
                tool_->nvbit_at_ctx_init(*p->pctx);
        }
        break;
      case CallbackId::cuCtxDestroy:
        if (!is_exit) {
            auto *p = static_cast<cudrv::cuCtxDestroy_params *>(params);
            if (tool_)
                tool_->nvbit_at_ctx_term(p->ctx);
        }
        break;
      case CallbackId::cuModuleUnload:
        if (!is_exit) {
            auto *p =
                static_cast<cudrv::cuModuleUnload_params *>(params);
            onModuleUnload(p->module);
        }
        break;
      case CallbackId::cuLaunchKernel:
        if (!is_exit) {
            onLaunchEntry(
                static_cast<cudrv::cuLaunchKernel_params *>(params));
        } else if (*status != cudrv::CUDA_SUCCESS) {
            attributeException(ctx);
        }
        break;
      case CallbackId::cuDevicePrimaryCtxReset:
        if (is_exit && *status == cudrv::CUDA_SUCCESS) {
            // The reset restored every app module's pristine code, so
            // any resident instrumented version is gone; mark it
            // non-resident and applyResidency() re-swaps it in at the
            // next launch.  Trampoline regions are core allocations
            // and survive the reset untouched.
            for (auto &[f, st] : fstate_)
                st->instrumented_resident = false;
        }
        break;
      default:
        break;
    }
}

// --- Tool Functions Loader ----------------------------------------------

void
NvbitCore::initForContext(CUcontext ctx)
{
    if (init_ctx_)
        return; // HAL and tool functions are loaded once
    init_ctx_ = ctx;
    sim::GpuDevice &gpu = cudrv::device();
    hal_ = std::make_unique<Hal>(gpu.family());

    // Place the embedded save/restore routines, one per bucket size.
    auto placeRoutine = [&](const std::vector<Instruction> &code) {
        std::vector<uint8_t> bytes = hal_->assembleAll(code);
        mem::DevPtr addr =
            gpu.memory().alloc(bytes.size(), hal_->codeAlignment());
        gpu.memory().write(addr, bytes.data(), bytes.size());
        builtin_ranges_.emplace_back(addr, bytes.size());
        return addr;
    };
    for (unsigned k : kSaveBuckets) {
        save_addr_[k] = placeRoutine(buildSaveRoutine(k));
        restore_addr_[k] = placeRoutine(buildRestoreRoutine(k));
        builtin_syms_[strfmt("__nvbit_save_%u", k)] = save_addr_[k];
        builtin_syms_[strfmt("__nvbit_restore_%u", k)] =
            restore_addr_[k];
    }
    for (const auto &[name, code] : buildDeviceApiRoutines())
        builtin_syms_[name] = placeRoutine(code);

    // Load the tool's device functions, resolving calls to the
    // Device API builtins through the extra symbol table.
    if (tool_ && !tool_->deviceFunctionSource().empty()) {
        ptx::CompiledModule cm;
        try {
            ptx::CompileOptions opts;
            opts.const_bank = 2; // tool constant bank, see gpu.hpp
            cm = ptx::compile(tool_->deviceFunctionSource(),
                              gpu.family(), opts);
        } catch (const ptx::CompileError &e) {
            fatal("tool device-function PTX failed to compile at line "
                  "%d: %s", e.line, e.message.c_str());
        }
        std::vector<uint8_t> image = cudrv::serializeModule(cm);
        CUresult r = cudrv::loadModuleInternal(
            &tool_module_, ctx, image.data(), image.size(),
            /*fire_callbacks=*/false, /*is_tool_module=*/true,
            &builtin_syms_);
        if (r != cudrv::CUDA_SUCCESS) {
            fatal("failed to load tool device functions: %s",
                  cudrv::resultName(r));
        }
    }
}

cudrv::CUdeviceptr
NvbitCore::toolGlobal(const char *name)
{
    NVBIT_ASSERT(tool_module_ != nullptr,
                 "no tool device functions loaded");
    auto it = tool_module_->globals.find(name);
    NVBIT_ASSERT(it != tool_module_->globals.end(),
                 "unknown tool global '%s'", name);
    return it->second.first;
}

// --- Instruction Lifter --------------------------------------------------

FuncState &
NvbitCore::stateOf(CUcontext ctx, CUfunction f)
{
    auto it = fstate_.find(f);
    if (it != fstate_.end())
        return *it->second;
    auto st = std::make_unique<FuncState>();
    st->func = f;
    st->ctx = ctx ? ctx : cudrv::currentContext();
    st->orig_launch_regs = f->launch_num_regs;
    st->orig_launch_stack = f->launch_stack_bytes;
    FuncState &ref = *st;
    fstate_[f] = std::move(st);
    return ref;
}

void
NvbitCore::lift(FuncState &st)
{
    if (st.lifted)
        return;
    NVBIT_ASSERT(hal_ != nullptr, "NVBit core used before any context "
                                  "was created");
    CUfunc_st *f = st.func;
    sim::GpuDevice &gpu = cudrv::device();
    const size_t ib = hal_->instrBytes();

    // (1) Retrieve the original GPU code.
    {
        ScopedTimerNs t(jit_.retrieve_ns);
        st.original_code.resize(f->code_size);
        gpu.memory().read(f->code_addr, st.original_code.data(),
                          f->code_size);
    }

    // (2) Disassemble into the internal representation (this also
    // produces the SASS strings, the dominant cost per the paper).
    const size_t n = f->code_size / ib;
    {
        ScopedTimerNs t(jit_.disassemble_ns);
        st.instrs.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            Instruction dec;
            if (!hal_->disassemble(st.original_code.data() + i * ib,
                                   dec)) {
                panic("undecodable instruction in function '%s' at "
                      "offset 0x%zx", f->name.c_str(), i * ib);
            }
            st.instrs.push_back(std::make_unique<Instr>(
                dec, static_cast<uint32_t>(i), i * ib, ib));
        }
    }

    // (3) Convert to the user-facing format: pointer vector, source
    // line correlation, indirect-control-flow detection.
    {
        ScopedTimerNs t(jit_.lift_ns);
        st.instr_ptrs.reserve(n);
        for (auto &ip : st.instrs) {
            st.instr_ptrs.push_back(ip.get());
            instr_owner_[ip.get()] = &st;
            if (ip->decoded().isIndirectBranch())
                st.has_icf = true;
        }
        for (const ptx::LineInfo &li : f->line_info) {
            if (li.instr_index < n &&
                li.file_index < f->mod->files.size()) {
                st.instrs[li.instr_index]->setLineInfo(
                    &f->mod->files[li.file_index], li.line);
            }
        }
    }
    st.lifted = true;
}

const std::vector<Instr *> &
NvbitCore::getInstrs(CUcontext ctx, CUfunction f)
{
    FuncState &st = stateOf(ctx, f);
    lift(st);
    return st.instr_ptrs;
}

std::vector<std::vector<Instr *>>
NvbitCore::getBasicBlocks(CUcontext ctx, CUfunction f)
{
    FuncState &st = stateOf(ctx, f);
    lift(st);
    if (st.bb_built)
        return st.basic_blocks;

    ScopedTimerNs t(jit_.lift_ns);
    st.basic_blocks.clear();
    if (st.has_icf) {
        // Paper: with indirect control flow "the basic block [API]
        // will also return the simpler flat view".
        st.basic_blocks.push_back(st.instr_ptrs);
        st.bb_built = true;
        return st.basic_blocks;
    }

    const size_t n = st.instr_ptrs.size();
    const size_t ib = hal_->instrBytes();
    std::vector<uint8_t> leader(n + 1, 0);
    if (n > 0)
        leader[0] = 1;
    for (size_t i = 0; i < n; ++i) {
        const Instruction &in = st.instr_ptrs[i]->decoded();
        if (!in.isControlFlow())
            continue;
        if (i + 1 < n)
            leader[i + 1] = 1;
        if (in.op == Opcode::BRA) {
            int64_t target_off = static_cast<int64_t>((i + 1) * ib) +
                                 in.imm;
            if (target_off >= 0 &&
                target_off < static_cast<int64_t>(n * ib) &&
                target_off % ib == 0) {
                leader[target_off / ib] = 1;
            }
        }
    }
    std::vector<Instr *> block;
    for (size_t i = 0; i < n; ++i) {
        if (leader[i] && !block.empty()) {
            st.basic_blocks.push_back(std::move(block));
            block.clear();
        }
        block.push_back(st.instr_ptrs[i]);
    }
    if (!block.empty())
        st.basic_blocks.push_back(std::move(block));
    st.bb_built = true;
    return st.basic_blocks;
}

std::vector<CUfunction>
NvbitCore::getRelatedFunctions(CUcontext ctx, CUfunction f)
{
    (void)ctx;
    std::vector<CUfunction> out;
    std::set<CUfunction> seen{f};
    std::vector<CUfunction> work{f};
    while (!work.empty()) {
        CUfunction cur = work.back();
        work.pop_back();
        for (CUfunc_st *r : cur->related) {
            if (seen.insert(r).second) {
                out.push_back(r);
                work.push_back(r);
            }
        }
    }
    return out;
}

// --- Instrumentation API ---------------------------------------------------

FuncState *
NvbitCore::owningState(const Instr *i)
{
    auto it = instr_owner_.find(i);
    NVBIT_ASSERT(it != instr_owner_.end(),
                 "Instr does not belong to a lifted function");
    return it->second;
}

void
NvbitCore::insertCall(const Instr *i, const char *fname, ipoint_t where)
{
    FuncState *st = owningState(i);
    InstrRequests &reqs = st->requests[i->getIdx()];
    CallRequest req;
    req.func_name = fname;
    req.where = where;
    auto &vec = (where == IPOINT_BEFORE) ? reqs.before : reqs.after;
    vec.push_back(std::move(req));
    st->last_call = &vec.back();
    st->dirty = true;
}

void
NvbitCore::addCallArg(const Instr *i, CallRequest::Arg arg)
{
    FuncState *st = owningState(i);
    NVBIT_ASSERT(st->last_call != nullptr,
                 "nvbit_add_call_arg_* without nvbit_insert_call");
    st->last_call->args.push_back(arg);
    st->dirty = true;
}

void
NvbitCore::removeOrig(const Instr *i)
{
    FuncState *st = owningState(i);
    st->requests[i->getIdx()].remove_orig = true;
    st->dirty = true;
}

// --- Code Generator ---------------------------------------------------------

namespace {

/** One trampoline under construction. */
struct PendingTrampoline {
    uint32_t instr_idx;
    std::vector<Instruction> code;
    int reloc_bra_pos = -1;  ///< index of the relocated BRA, if any
    int64_t orig_bra_imm = 0;
    size_t offset = 0;       ///< byte offset within the bulk region
    size_t orig_slot = 0;    ///< instruction slot of the relocated orig
    bool has_orig = false;   ///< false under nvbit_remove_orig
    /** Set when the callsite matched a declared inline-probe shape;
     *  registered with the device once the region address is known. */
    bool inlinable = false;
    sim::InlineProbe probe{};
};

} // namespace

void
NvbitCore::declareInlineProbe(const std::string &name,
                              const nvbit_probe_desc &desc)
{
    ProbeDecl d;
    d.ballot_guard = desc.ballot_guard;
    if (desc.warp_counter)
        d.warp_counter = desc.warp_counter;
    if (desc.thread_counter)
        d.thread_counter = desc.thread_counter;
    if (desc.table_ptr)
        d.table_ptr = desc.table_ptr;
    d.index_arg = desc.index_arg;
    d.scale_arg = desc.scale_arg;
    probe_decls_[name] = std::move(d);
}

unsigned
NvbitCore::pickSaveBucket(const FuncState &st,
                          const InstrRequests &reqs) const
{
    CUfunc_st *f = st.func;
    if (force_full_save_) {
        // Ablation: no register-requirement analysis; preserve the
        // entire register file around every injection.
        return kSaveBuckets[std::size(kSaveBuckets) - 1];
    }
    // Clobber envelope of the injected machinery: marshalling uses the
    // scratch and argument registers (R0..R15); add the register
    // demand of every injected function.
    unsigned clobber = 16;
    unsigned min_floor = 0;
    auto account = [&](const CallRequest &req) {
        CUfunc_st *tf = tool_module_ ? tool_module_->find(req.func_name)
                                     : nullptr;
        if (tf) {
            clobber = std::max(clobber, tf->num_regs);
            if (tf->uses_device_api) {
                // Arbitrary registers may be read/written: save the
                // application's full register state.
                min_floor = std::max(min_floor, f->num_regs);
            }
        }
        for (const CallRequest::Arg &a : req.args) {
            if (a.kind == CallRequest::ArgKind::RegVal)
                min_floor = std::max(min_floor,
                                     static_cast<unsigned>(a.v0) + 1);
        }
    };
    for (const CallRequest &r : reqs.before)
        account(r);
    for (const CallRequest &r : reqs.after)
        account(r);

    // Paper: save the minimum — registers the application does not use
    // are dead and need not be preserved.
    unsigned needed = std::min(clobber, std::max(f->num_regs, 1u));
    needed = std::max(needed, min_floor);
    return saveBucketFor(needed);
}

void
NvbitCore::marshalArgs(const CallRequest &req, const Instr &instr,
                       unsigned save_k, std::vector<Instruction> &out)
{
    std::vector<bool> is64;
    for (const CallRequest::Arg &a : req.args)
        is64.push_back(a.kind == CallRequest::ArgKind::Imm64);
    auto slots = isa::abiAssignArgRegs(is64);
    NVBIT_ASSERT(slots.has_value(),
                 "too many arguments for injected function '%s'",
                 req.func_name.c_str());

    for (size_t i = 0; i < req.args.size(); ++i) {
        const CallRequest::Arg &a = req.args[i];
        uint8_t dst = (*slots)[i].reg;
        switch (a.kind) {
          case CallRequest::ArgKind::GuardPred: {
            const Instruction &dec = instr.decoded();
            if (dec.alwaysExecutes()) {
                out.push_back(isa::makeMovImm(dst, 1));
            } else if (dec.pred == isa::kPredT) {
                out.push_back(
                    isa::makeMovImm(dst, dec.pred_neg ? 0 : 1));
            } else {
                out.push_back(isa::makeLoad(Opcode::LDL,
                                            isa::kAbiScratch0,
                                            isa::kAbiSpReg, 0));
                Instruction shr;
                shr.op = Opcode::SHR;
                shr.mod = isa::kModImmSrc2;
                shr.rd = isa::kAbiScratch0;
                shr.ra = isa::kAbiScratch0;
                shr.imm = dec.pred;
                out.push_back(shr);
                Instruction andi;
                andi.op = Opcode::AND;
                andi.mod = isa::kModImmSrc2;
                andi.rd = dst;
                andi.ra = isa::kAbiScratch0;
                andi.imm = 1;
                out.push_back(andi);
                if (dec.pred_neg) {
                    Instruction x;
                    x.op = Opcode::XOR;
                    x.mod = isa::kModImmSrc2;
                    x.rd = dst;
                    x.ra = dst;
                    x.imm = 1;
                    out.push_back(x);
                }
            }
            break;
          }
          case CallRequest::ArgKind::RegVal: {
            unsigned r = static_cast<unsigned>(a.v0);
            NVBIT_ASSERT(r < save_k,
                         "REG_VAL argument R%u exceeds the save window "
                         "(%u registers)", r, save_k);
            out.push_back(isa::makeLoad(Opcode::LDL, dst,
                                        isa::kAbiSpReg,
                                        saveSlotOf(r)));
            break;
          }
          case CallRequest::ArgKind::Imm32:
            isa::emitMaterialize32(out, dst,
                                   static_cast<uint32_t>(a.v0));
            break;
          case CallRequest::ArgKind::Imm64:
            isa::emitMaterialize32(out, dst,
                                   static_cast<uint32_t>(a.v0));
            isa::emitMaterialize32(
                out, static_cast<uint8_t>(dst + 1),
                static_cast<uint32_t>(a.v0 >> 32));
            break;
          case CallRequest::ArgKind::CBank:
            out.push_back(isa::makeLdc(
                dst, static_cast<uint8_t>(a.v0),
                static_cast<uint32_t>(a.v1)));
            break;
          case CallRequest::ArgKind::ActiveMask: {
            Instruction vote;
            vote.op = Opcode::VOTE;
            vote.mod = isa::modSetVotePred(
                isa::modSetVoteMode(0, isa::VoteMode::BALLOT),
                isa::kPredT, false);
            vote.rd = dst;
            out.push_back(vote);
            break;
          }
        }
    }
}

void
NvbitCore::generate(FuncState &st)
{
    ScopedTimerNs timer(jit_.codegen_ns);
    CUfunc_st *f = st.func;
    std::string span_name;
    if (obs::Tracer::instance().enabled())
        span_name = strfmt("instrument %s", f->name.c_str());
    obs::TraceSpan span(obs::kHostPid, obs::kHostJitTid, span_name,
                        "core.jit");
    uint64_t save_restore_pairs = 0;
    uint64_t tool_call_sites = 0;
    sim::GpuDevice &gpu = cudrv::device();
    const size_t ib = hal_->instrBytes();

    NVBIT_ASSERT(st.lifted, "generate before lift");

    // Regeneration: if a previous instrumented version is resident it
    // is about to become stale (its trampolines are freed below), so
    // put the original code back first; applyResidency() then installs
    // the freshly generated version.
    if (st.instrumented_resident) {
        ScopedTimerNs t(jit_.swap_ns);
        gpu.memory().write(f->code_addr, st.original_code.data(),
                           st.original_code.size());
        jit_.swap_bytes += st.original_code.size();
        st.instrumented_resident = false;
    }
    // Drop the previous trampoline region (and its predecoded pages,
    // before the range can be reallocated for new code).
    if (st.tramp_base) {
        gpu.invalidateCodeRange(st.tramp_base, st.tramp_bytes);
        gpu.memory().free(st.tramp_base);
        st.tramp_base = 0;
        st.tramp_bytes = 0;
    }
    st.tramp_spans.clear();
    // Inline probes registered by a previous generation point at the
    // trampolines just freed; drop them before registering new ones.
    gpu.clearInlineProbes(f->code_addr, f->code_size);

    st.instrumented_code = st.original_code;
    unsigned max_k = 0;
    uint32_t tool_regs = 0;
    uint32_t tool_stack = 0;

    // Does this callsite's request list match a declared inline-probe
    // shape exactly?  Single IPOINT_BEFORE call, original kept, every
    // argument accounted for by the declaration, all named tool
    // globals resolvable.  Anything else falls back to the trampoline.
    auto resolveGlobal = [&](const std::string &nm, uint64_t &out) {
        if (nm.empty()) {
            out = 0;
            return true;
        }
        if (!tool_module_)
            return false;
        auto git = tool_module_->globals.find(nm);
        if (git == tool_module_->globals.end())
            return false;
        out = git->second.first;
        return true;
    };
    auto matchProbe = [&](const InstrRequests &reqs, const Instr &I,
                          sim::InlineProbe &p) {
        if (reqs.before.size() != 1 || !reqs.after.empty() ||
            reqs.remove_orig)
            return false;
        const CallRequest &req = reqs.before.front();
        auto dit = probe_decls_.find(req.func_name);
        if (dit == probe_decls_.end())
            return false;
        const ProbeDecl &d = dit->second;
        std::vector<bool> used(req.args.size(), false);
        if (d.ballot_guard) {
            if (req.args.empty() ||
                req.args[0].kind != CallRequest::ArgKind::GuardPred)
                return false;
            used[0] = true;
        }
        auto takeImm = [&](int pos, uint64_t &v) {
            if (pos < 0)
                return true; // declaration does not use this term
            if (pos >= static_cast<int>(req.args.size()) || used[pos] ||
                req.args[pos].kind != CallRequest::ArgKind::Imm32)
                return false;
            v = req.args[pos].v0;
            used[pos] = true;
            return true;
        };
        uint64_t index = 0;
        uint64_t scale = 1;
        if (!takeImm(d.index_arg, index) || !takeImm(d.scale_arg, scale))
            return false;
        for (bool u : used)
            if (!u)
                return false; // an argument the shape cannot explain
        if (!resolveGlobal(d.warp_counter, p.warp_counter) ||
            !resolveGlobal(d.thread_counter, p.thread_counter) ||
            !resolveGlobal(d.table_ptr, p.table_ptr))
            return false;
        p.ballot_guard = d.ballot_guard;
        p.index = static_cast<uint32_t>(index);
        p.scale = scale;
        p.orig = I.decoded(); // un-relocated: replayed at the callsite pc
        return true;
    };

    std::vector<PendingTrampoline> tramps;
    for (auto &[idx, reqs] : st.requests) {
        if (reqs.empty())
            continue;
        NVBIT_ASSERT(idx < st.instr_ptrs.size(),
                     "instruction index out of range");
        const Instr &I = *st.instr_ptrs[idx];
        const unsigned k = pickSaveBucket(st, reqs);
        max_k = std::max(max_k, k);

        PendingTrampoline tr;
        tr.instr_idx = idx;

        auto lookupTarget = [&](const std::string &name) -> uint64_t {
            if (tool_module_) {
                if (CUfunc_st *tf = tool_module_->find(name)) {
                    tool_regs = std::max(tool_regs, tf->num_regs);
                    tool_stack = std::max(tool_stack, tf->total_stack);
                    return tf->code_addr;
                }
            }
            auto bit = builtin_syms_.find(name);
            if (bit != builtin_syms_.end())
                return bit->second;
            fatal("nvbit_insert_call: unknown device function '%s'",
                  name.c_str());
        };

        auto emitCalls = [&](const std::vector<CallRequest> &calls) {
            tr.code.push_back(isa::makeCalAbs(save_addr_.at(k)));
            ++save_restore_pairs;
            tool_call_sites += calls.size();
            for (const CallRequest &req : calls) {
                marshalArgs(req, I, k, tr.code);
                tr.code.push_back(
                    isa::makeCalAbs(lookupTarget(req.func_name)));
            }
            tr.code.push_back(isa::makeCalAbs(restore_addr_.at(k)));
        };

        if (!reqs.before.empty())
            emitCalls(reqs.before);

        // Relocated original instruction (paper Figure 4 step 5), or a
        // NOP under nvbit_remove_orig.
        const Instruction &orig = I.decoded();
        tr.orig_slot = tr.code.size();
        tr.has_orig = !reqs.remove_orig;
        if (reqs.remove_orig) {
            tr.code.push_back(isa::makeNop());
        } else {
            if (orig.isRelativeBranch()) {
                tr.reloc_bra_pos = static_cast<int>(tr.code.size());
                tr.orig_bra_imm = orig.imm;
            }
            tr.code.push_back(orig);
        }

        if (!reqs.after.empty())
            emitCalls(reqs.after);

        // Return to the next PC of the instrumented code.
        tr.code.push_back(
            isa::makeJmpAbs(f->code_addr + (idx + 1) * ib));
        if (!probe_decls_.empty() && matchProbe(reqs, I, tr.probe))
            tr.inlinable = true;
        tramps.push_back(std::move(tr));
    }

    if (!tramps.empty()) {
        // Bulk-allocate the trampoline region (paper: "the allocation
        // of space for these trampolines is handled in bulk").
        size_t total = 0;
        for (PendingTrampoline &tr : tramps) {
            tr.offset = total;
            total += tr.code.size() * ib;
        }
        st.tramp_spans.reserve(tramps.size());
        for (const PendingTrampoline &tr : tramps) {
            st.tramp_spans.push_back(
                FuncState::TrampSpan{tr.offset, tr.code.size() * ib,
                                     tr.instr_idx, tr.orig_slot * ib,
                                     tr.has_orig});
        }
        st.tramp_base = gpu.memory().alloc(
            total, std::max(hal_->codeAlignment(), size_t{16}));
        st.tramp_bytes = total;

        std::vector<uint8_t> bulk(total);
        for (PendingTrampoline &tr : tramps) {
            uint64_t base = st.tramp_base + tr.offset;
            // Fix up the relocated relative branch now that the final
            // position is known (paper Figure 4: "if this relocated
            // instruction is a relative control flow instruction, the
            // offset must be adjusted").
            if (tr.reloc_bra_pos >= 0) {
                uint64_t orig_next =
                    f->code_addr + (tr.instr_idx + 1) * ib;
                uint64_t new_next =
                    base + (tr.reloc_bra_pos + 1) * ib;
                int64_t new_imm =
                    static_cast<int64_t>(orig_next + tr.orig_bra_imm) -
                    static_cast<int64_t>(new_next);
                Instruction &bra = tr.code[tr.reloc_bra_pos];
                bra.imm = new_imm;
                if (!isa::encodable(hal_->family(), bra)) {
                    fatal("relocated branch offset overflows the %s "
                          "encoding; trampoline too far from code",
                          isa::archFamilyName(hal_->family()));
                }
            }
            std::vector<uint8_t> bytes = hal_->assembleAll(tr.code);
            std::copy(bytes.begin(), bytes.end(),
                      bulk.begin() + tr.offset);
            // Patch the instrumented copy: the original instruction
            // becomes an unconditional jump to the trampoline.
            Instruction jmp = isa::makeJmpAbs(base);
            hal_->assemble(jmp, st.instrumented_code.data() +
                                    tr.instr_idx * ib);
            if (tr.inlinable) {
                tr.probe.jmp_pc = f->code_addr + tr.instr_idx * ib;
                tr.probe.tramp_target = base;
                gpu.registerInlineProbe(tr.probe);
            }
            ++jit_.trampolines_generated;
        }
        gpu.memory().write(st.tramp_base, bulk.data(), bulk.size());
        // The write above invalidated any stale predecoded pages;
        // decode the fresh trampolines eagerly.
        gpu.predecodeRange(st.tramp_base, st.tramp_bytes);
    }

    // Launch requirements of the instrumented version (paper: the Code
    // Loader/Unloader "computes the stack and register requirements
    // for the kernel launch, based on which version ... is executing").
    st.instr_num_regs = std::max({f->num_regs, max_k, tool_regs});
    st.instr_stack_bytes =
        saveFrameBytes(max_k == 0 ? 8 : max_k) + tool_stack + 64;
    st.generated = true;
    st.dirty = false;
    ++jit_.functions_instrumented;

    obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
    mr.add("core.functions_instrumented", 1);
    mr.add("core.trampolines_generated", tramps.size());
    mr.add("core.save_restore_pairs", save_restore_pairs);
    mr.add("core.tool_call_sites", tool_call_sites);
    span.arg("trampolines", tramps.size());
}

// --- Code Loader/Unloader --------------------------------------------------

void
NvbitCore::applyResidency(FuncState &st)
{
    CUfunc_st *f = st.func;
    bool want = st.generated && st.enable_desired &&
                !st.requests.empty();
    if (want == st.instrumented_resident)
        return;
    const std::vector<uint8_t> &code =
        want ? st.instrumented_code : st.original_code;
    NVBIT_ASSERT(code.size() == f->code_size,
                 "code version size mismatch");
    {
        // Paper: "the cost of this operation is identical to that of a
        // cudaMemcpy from host to device with the number of bytes
        // equal to the size of the original code".
        ScopedTimerNs t(jit_.swap_ns);
        std::string span_name;
        if (obs::Tracer::instance().enabled())
            span_name = strfmt("code-swap %s [%s]", f->name.c_str(),
                               want ? "instrumented" : "original");
        obs::TraceSpan span(obs::kHostPid, obs::kHostJitTid, span_name,
                            "core.jit");
        span.arg("bytes", static_cast<uint64_t>(code.size()));
        cudrv::device().memory().write(f->code_addr, code.data(),
                                       code.size());
        jit_.swap_bytes += code.size();
        obs::MetricsRegistry &mr = obs::MetricsRegistry::instance();
        mr.add("core.code_swaps", 1);
        mr.add("core.swap_bytes", code.size());
    }
    // Cache-invalidation protocol: swapping code versions must drop
    // the stale predecoded image (the write observer already did) and
    // predecode the incoming version before the next fetch.
    cudrv::device().invalidateCodeRange(f->code_addr, f->code_size);
    cudrv::device().predecodeRange(f->code_addr, f->code_size);
    st.instrumented_resident = want;
}

void
NvbitCore::updateLaunchRequirements(CUfunction f)
{
    // Collect the launched function and everything it may call.
    std::vector<CUfunction> funcs = getRelatedFunctions(nullptr, f);
    funcs.push_back(f);

    uint32_t regs = 0;
    uint32_t extra_stack = 0;
    for (CUfunction g : funcs) {
        regs = std::max(regs, g->num_regs);
        auto it = fstate_.find(g);
        if (it != fstate_.end() && it->second->instrumented_resident) {
            regs = std::max(regs, it->second->instr_num_regs);
            extra_stack = std::max(extra_stack,
                                   it->second->instr_stack_bytes);
        }
    }
    f->launch_num_regs = std::max(f->num_regs, regs);
    f->launch_stack_bytes = f->total_stack + extra_stack;
}

void
NvbitCore::onLaunchEntry(cudrv::cuLaunchKernel_params *p)
{
    CUfunction f = p->f;
    if (!f)
        return;
    std::vector<CUfunction> funcs = getRelatedFunctions(nullptr, f);
    funcs.push_back(f);
    for (CUfunction g : funcs) {
        auto it = fstate_.find(g);
        if (it == fstate_.end())
            continue;
        FuncState &st = *it->second;
        if (!st.requests.empty() && (!st.generated || st.dirty))
            generate(st);
        applyResidency(st);
    }
    updateLaunchRequirements(f);
}

// --- Fault attribution -------------------------------------------------------

namespace {

/** Span containing trampoline-region offset @p off, or nullptr. */
const FuncState::TrampSpan *
findSpan(const FuncState &st, uint64_t off)
{
    for (const FuncState::TrampSpan &sp : st.tramp_spans) {
        if (off >= sp.offset && off < sp.offset + sp.bytes)
            return &sp;
    }
    return nullptr;
}

} // namespace

void
NvbitCore::resolvePcOrigin(uint64_t pc,
                           const std::vector<uint64_t> &ret_stack,
                           bool &tool, uint64_t &app_pc,
                           std::string *label,
                           uint64_t *label_base) const
{
    const size_t ib = hal_ ? hal_->instrBytes() : 8;

    // Where does a pc live?  (a) inside a trampoline region: the span
    // maps it back to the instrumented app instruction, and the
    // relocated-original slot is the only app-origin instruction in
    // the span.  (b) inside a tool device function or a builtin
    // save/restore/Device-API routine: tool origin.  (c) anywhere
    // else: application code.
    auto inToolCode = [&](uint64_t p) {
        if (tool_module_) {
            for (const auto &fn : tool_module_->funcs) {
                if (p >= fn->code_addr &&
                    p < fn->code_addr + fn->code_size)
                    return true;
            }
        }
        for (const auto &[addr, bytes] : builtin_ranges_) {
            if (p >= addr && p < addr + bytes)
                return true;
        }
        return false;
    };
    auto inTrampoline = [&](uint64_t p)
        -> std::pair<const FuncState *, const FuncState::TrampSpan *> {
        for (const auto &[f, st] : fstate_) {
            if (st->tramp_base && p >= st->tramp_base &&
                p < st->tramp_base + st->tramp_bytes) {
                return {st.get(), findSpan(*st, p - st->tramp_base)};
            }
        }
        return {nullptr, nullptr};
    };

    tool = false;
    app_pc = pc;
    if (auto [st, sp] = inTrampoline(pc); st) {
        app_pc = sp ? st->func->code_addr + sp->instr_idx * ib : pc;
        bool at_orig = sp && sp->has_orig &&
                       (pc - st->tramp_base) - sp->offset ==
                           sp->orig_slot_off;
        // Landing on the relocated original instruction is the app's
        // own code; anywhere else in the span is injected machinery.
        tool = !at_orig;
        if (label) {
            *label = st->func->name + "$tramp";
            if (label_base)
                *label_base = st->tramp_base;
        }
    } else if (inToolCode(pc)) {
        tool = true;
        // Walk the return stack (innermost last) for the trampoline
        // call site, recovering the app instruction being
        // instrumented when inside a tool device function.
        for (auto it = ret_stack.rbegin(); it != ret_stack.rend();
             ++it) {
            if (auto [st, sp] = inTrampoline(*it); st && sp) {
                app_pc = st->func->code_addr + sp->instr_idx * ib;
                break;
            }
        }
        // Builtin routines (register save/restore, Device API) live
        // outside every module; name them from the symbol table.
        if (label) {
            for (const auto &[addr, bytes] : builtin_ranges_) {
                if (pc < addr || pc >= addr + bytes)
                    continue;
                for (const auto &[nm, a] : builtin_syms_) {
                    if (a == addr) {
                        *label = nm;
                        if (label_base)
                            *label_base = addr;
                        break;
                    }
                }
                break;
            }
        }
    }
}

void
NvbitCore::attributeException(CUcontext ctx)
{
    cudrv::CUexceptionInfo *info = cudrv::mutableExceptionInfo(ctx);
    if (!info || !info->valid ||
        info->origin != cudrv::CU_EXCEPTION_ORIGIN_UNKNOWN)
        return;
    const sim::DeviceException &e = info->exc;

    bool tool = false;
    uint64_t app_pc = e.pc;
    resolvePcOrigin(e.pc, e.ret_stack, tool, app_pc);
    info->origin = tool ? cudrv::CU_EXCEPTION_ORIGIN_TOOL
                        : cudrv::CU_EXCEPTION_ORIGIN_APP;
    info->app_pc = app_pc;

    if (tool_)
        tool_->nvbit_at_exception(ctx, *info);
}

void
NvbitCore::enableInstrumented(CUcontext ctx, CUfunction f, bool enable,
                              bool apply_related)
{
    std::vector<CUfunction> funcs;
    funcs.push_back(f);
    if (apply_related) {
        for (CUfunction g : getRelatedFunctions(ctx, f))
            funcs.push_back(g);
    }
    for (CUfunction g : funcs) {
        FuncState &st = stateOf(ctx, g);
        st.enable_desired = enable;
        if (st.generated)
            applyResidency(st);
    }
}

void
NvbitCore::resetInstrumented(CUcontext ctx, CUfunction f)
{
    FuncState &st = stateOf(ctx, f);
    if (st.instrumented_resident) {
        ScopedTimerNs t(jit_.swap_ns);
        cudrv::device().memory().write(f->code_addr,
                                       st.original_code.data(),
                                       st.original_code.size());
        jit_.swap_bytes += st.original_code.size();
        st.instrumented_resident = false;
    }
    if (st.tramp_base) {
        cudrv::device().invalidateCodeRange(st.tramp_base,
                                            st.tramp_bytes);
        cudrv::device().memory().free(st.tramp_base);
        st.tramp_base = 0;
        st.tramp_bytes = 0;
    }
    cudrv::device().clearInlineProbes(f->code_addr, f->code_size);
    st.tramp_spans.clear();
    st.requests.clear();
    st.last_call = nullptr;
    st.generated = false;
    st.dirty = false;
    st.instrumented_code.clear();
    f->launch_num_regs = st.orig_launch_regs;
    f->launch_stack_bytes = st.orig_launch_stack;
}

void
NvbitCore::onModuleUnload(cudrv::CUmodule mod)
{
    for (auto it = fstate_.begin(); it != fstate_.end();) {
        if (it->first->mod == mod) {
            FuncState &st = *it->second;
            cudrv::device().clearInlineProbes(it->first->code_addr,
                                              it->first->code_size);
            if (st.tramp_base)
                cudrv::device().memory().free(st.tramp_base);
            for (Instr *i : st.instr_ptrs)
                instr_owner_.erase(i);
            it = fstate_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace nvbit::core
