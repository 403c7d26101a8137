#include "sim/trace_compiler.hpp"

#include <set>
#include <unordered_map>

#include "sim/predecode.hpp"

namespace nvbit::sim {

using isa::Instruction;
using isa::Opcode;

namespace {

/** Upper bound on instructions per trace. */
constexpr unsigned kMaxInstrs = 256;
/** Minimum eligible-op run length worth strip formation. */
constexpr unsigned kMinStripRun = 4;

/** Ends the superblock after executing (state/PC can change). */
bool
isTerminal(const Instruction &in)
{
    return in.isControlFlow() || in.op == Opcode::EXIT ||
           in.op == Opcode::BAR;
}

/** One decoded superblock instruction before entry formation. */
struct RawInstr {
    Instruction in;
    uint64_t pc = 0;
    const InlineProbe *probe = nullptr;
    bool shaped = false;
    LaneShape shape;
};

/**
 * Incrementally allocates strip slots for one run.  Constant slots
 * are numbered after the variable slots, which are only known once
 * the run closes, so constants use a provisional 0x80|k encoding that
 * finalise() rewrites (kMaxSlots < 0x80, no collision).
 */
class SlotAlloc
{
  public:
    bool
    wouldFit(const LaneShape &s) const
    {
        unsigned nv = vars_.size(), nc = consts_.size();
        auto addSrc = [&](const LaneSrc &o) {
            if (!o.is_const) {
                if (vmap_.find(o.reg) == vmap_.end())
                    ++nv;
            } else if (o.value != 0 &&
                       cmap_.find(o.value) == cmap_.end()) {
                ++nc;
            }
        };
        addSrc(s.a);
        addSrc(s.b);
        addSrc(s.c);
        if (s.rd != isa::kRegZ && vmap_.find(s.rd) == vmap_.end())
            ++nv;
        return StripRun::kFirstVarSlot + nv + nc <= StripRun::kMaxSlots;
    }

    /** Constant 0 (RZ, unused sources) reads the zero slot. */
    uint8_t
    srcSlot(const LaneSrc &o)
    {
        if (!o.is_const)
            return varSlot(o.reg);
        if (o.value == 0)
            return StripRun::kZeroSlot;
        auto [it, fresh] = cmap_.try_emplace(
            o.value, static_cast<uint8_t>(0x80u | consts_.size()));
        if (fresh)
            consts_.push_back(o.value);
        return it->second;
    }

    uint8_t
    dstSlot(uint8_t reg)
    {
        if (reg == isa::kRegZ)
            return StripRun::kSinkSlot;
        uint8_t s = varSlot(reg);
        dirty_.insert(s);
        return s;
    }

    void
    finalize(StripRun &run)
    {
        const uint8_t cbase =
            static_cast<uint8_t>(StripRun::kFirstVarSlot + vars_.size());
        for (StripOp &op : run.ops) {
            auto fix = [&](uint8_t &slot) {
                if (slot & 0x80u)
                    slot = static_cast<uint8_t>(cbase + (slot & 0x7Fu));
            };
            fix(op.a);
            fix(op.b);
            fix(op.c);
        }
        run.gather = vars_;
        run.consts = consts_;
        for (uint8_t s : dirty_)
            run.scatter.emplace_back(
                s, vars_[s - StripRun::kFirstVarSlot]);
        run.nslots = static_cast<uint8_t>(cbase + consts_.size());
    }

  private:
    uint8_t
    varSlot(uint8_t reg)
    {
        auto [it, fresh] = vmap_.try_emplace(
            reg,
            static_cast<uint8_t>(StripRun::kFirstVarSlot + vars_.size()));
        if (fresh)
            vars_.push_back(reg);
        return it->second;
    }

    std::unordered_map<uint8_t, uint8_t> vmap_;
    std::unordered_map<uint32_t, uint8_t> cmap_;
    std::vector<uint8_t> vars_;
    std::vector<uint32_t> consts_;
    std::set<uint8_t> dirty_;
};

/** The probe registered at @p pc, if it still belongs to the JMP
 *  decoded there (code swaps restore the original bytes without
 *  unregistering). */
const InlineProbe *
probeAt(const ProbeMap &probes, uint64_t pc, const Instruction &in)
{
    auto it = probes.find(pc);
    if (it == probes.end() ||
        static_cast<uint64_t>(in.imm) * isa::kJmpScale !=
            it->second.tramp_target)
        return nullptr;
    return &it->second;
}

} // namespace

std::unique_ptr<Trace>
compileTrace(const PredecodedImage &page, size_t start, size_t ib,
             const ProbeMap &probes)
{
    // --- Pass 1: gather the superblock's decoded entries -------------
    std::vector<RawInstr> raw;
    bool has_probe = false;
    for (size_t i = start; i < page.entries.size() && raw.size() < kMaxInstrs;
         ++i) {
        const PredecodedEntry &pe = page.entries[i];
        if (pe.status != PredecodeStatus::Valid)
            break; // illegal or unmapped: side-exit, trap untraced
        RawInstr r;
        r.in = pe.in;
        r.pc = page.base + i * ib;
        if (r.in.op == Opcode::JMP && r.in.alwaysExecutes()) {
            if (const InlineProbe *pr = probeAt(probes, r.pc, r.in)) {
                // A barrier parks threads at their post-advance pc.
                // Inlined, that is the callsite; through the
                // trampoline, it is inside the trampoline — and warps
                // of the same block may take either path (divergent
                // warps fall back per-instruction), which the
                // divergent-barrier detector would flag as two
                // distinct barriers.  Never inline a BAR callsite.
                if (pr->orig.op == Opcode::BAR)
                    break;
                r.probe = pr;
                raw.push_back(r);
                has_probe = true;
                if (isTerminal(pr->orig))
                    break;
                continue;
            }
        }
        // S2R of an out-of-range special register throws with the
        // thread's (post-advance) pc; the trace engine defers PC
        // updates, so leave that case to the per-instruction path.
        if (r.in.op == Opcode::S2R &&
            (r.in.imm < 0 ||
             r.in.imm >=
                 static_cast<int64_t>(isa::SpecialReg::NumSpecialRegs)))
            break;
        r.shaped = r.in.alwaysExecutes() && laneShape(r.in, r.shape);
        raw.push_back(r);
        if (isTerminal(r.in))
            break;
    }
    if (raw.empty() || (raw.size() < 2 && !has_probe))
        return nullptr;

    // --- Pass 2: entry formation with strip runs ---------------------
    auto tr = std::make_unique<Trace>();
    tr->entry_pc = raw.front().pc;
    tr->first_in = raw.front().in;
    uint8_t prev_dst = isa::kRegZ; // entry 0's stall is dynamic
    bool first = true;
    auto rawStall = [&](const Instruction &in) {
        bool st = !first && prev_dst != isa::kRegZ && in.readsGpr(prev_dst);
        first = false;
        return st;
    };

    size_t i = 0;
    const size_t n = raw.size();
    while (i < n) {
        const RawInstr &r = raw[i];
        if (r.probe) {
            TraceEntry e;
            e.kind = isTerminal(r.probe->orig)
                         ? TraceEntryKind::ProbeTerminal
                         : TraceEntryKind::Probe;
            e.raw_stall = rawStall(r.in); // the JMP reads no GPR
            e.idx = static_cast<uint16_t>(tr->probes.size());
            e.in = r.in;
            e.pc = r.pc;
            tr->probes.push_back(*r.probe);
            tr->entries.push_back(e);
            // JMP writes nothing; the displaced original chains next.
            prev_dst = r.probe->orig.writesGpr() ? r.probe->orig.rd
                                                 : isa::kRegZ;
            tr->n_instrs += 2;
            ++i;
            continue;
        }
        if (r.shaped && !isTerminal(r.in)) {
            // Greedy maximal run under the slot budget.
            StripRun run;
            SlotAlloc alloc;
            size_t j = i;
            while (j < n && raw[j].shaped && !raw[j].probe &&
                   !isTerminal(raw[j].in) &&
                   alloc.wouldFit(raw[j].shape)) {
                const LaneShape &s = raw[j].shape;
                StripOp op;
                op.h = s.op;
                op.op = raw[j].in.op;
                op.a = alloc.srcSlot(s.a);
                op.b = alloc.srcSlot(s.b);
                op.c = alloc.srcSlot(s.c);
                op.d = alloc.dstSlot(s.rd);
                op.aux = s.aux;
                op.pd = s.pd;
                op.arch_dst =
                    raw[j].in.writesGpr() ? raw[j].in.rd : isa::kRegZ;
                op.raw_stall = rawStall(raw[j].in);
                op.pc = raw[j].pc;
                run.preds = run.preds || laneOpUsesPreds(s.op);
                run.ops.push_back(op);
                prev_dst = op.arch_dst;
                ++j;
            }
            if (run.ops.size() >= kMinStripRun) {
                alloc.finalize(run);
                TraceEntry e;
                e.kind = TraceEntryKind::Strip;
                e.raw_stall = run.ops.front().raw_stall;
                e.idx = static_cast<uint16_t>(tr->strips.size());
                e.pc = raw[i].pc;
                tr->n_instrs += static_cast<uint32_t>(run.ops.size());
                tr->strips.push_back(std::move(run));
                tr->entries.push_back(e);
                i = j;
                continue;
            }
            // Short run: fall through as generic entries, reusing the
            // stall chain already computed above.
            for (size_t k = i; k < j; ++k) {
                TraceEntry e;
                e.kind = TraceEntryKind::Op;
                e.raw_stall = run.ops[k - i].raw_stall;
                e.in = raw[k].in;
                e.pc = raw[k].pc;
                tr->entries.push_back(e);
                ++tr->n_instrs;
            }
            i = j;
            continue;
        }
        TraceEntry e;
        e.kind = isTerminal(r.in) ? TraceEntryKind::OpTerminal
                                  : TraceEntryKind::Op;
        e.raw_stall = rawStall(r.in);
        e.is_cf = r.in.isControlFlow();
        e.in = r.in;
        e.pc = r.pc;
        tr->entries.push_back(e);
        ++tr->n_instrs;
        prev_dst = r.in.writesGpr() ? r.in.rd : isa::kRegZ;
        ++i;
    }
    return tr;
}

} // namespace nvbit::sim
