#include "ptx/codegen.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/logging.hpp"
#include "isa/abi.hpp"
#include "ptx/vinstr.hpp"

namespace nvbit::ptx {

using isa::Opcode;
using isa::DType;
using isa::Instruction;

namespace {

uint32_t
alignUp(uint32_t v, uint32_t a)
{
    return (v + a - 1) & ~(a - 1);
}

uint32_t
f32Bits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

bool
fitsImm24(int64_t v)
{
    return v >= -(1ll << 23) && v < (1ll << 23);
}

const std::map<std::string, isa::SpecialReg> kSpecialByName = {
    {"%tid.x", isa::SpecialReg::TID_X},
    {"%tid.y", isa::SpecialReg::TID_Y},
    {"%tid.z", isa::SpecialReg::TID_Z},
    {"%ntid.x", isa::SpecialReg::NTID_X},
    {"%ntid.y", isa::SpecialReg::NTID_Y},
    {"%ntid.z", isa::SpecialReg::NTID_Z},
    {"%ctaid.x", isa::SpecialReg::CTAID_X},
    {"%ctaid.y", isa::SpecialReg::CTAID_Y},
    {"%ctaid.z", isa::SpecialReg::CTAID_Z},
    {"%nctaid.x", isa::SpecialReg::NCTAID_X},
    {"%nctaid.y", isa::SpecialReg::NCTAID_Y},
    {"%nctaid.z", isa::SpecialReg::NCTAID_Z},
    {"%laneid", isa::SpecialReg::LANEID},
    {"%warpid", isa::SpecialReg::WARPID},
    {"%smid", isa::SpecialReg::SMID},
    {"%clock", isa::SpecialReg::CLOCKLO},
};

/** Split a dotted mnemonic into parts ("add.u32" -> {"add","u32"}). */
std::vector<std::string>
splitDots(const std::string &s)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= s.size()) {
        size_t dot = s.find('.', start);
        if (dot == std::string::npos) {
            parts.push_back(s.substr(start));
            break;
        }
        parts.push_back(s.substr(start, dot - start));
        start = dot + 1;
    }
    return parts;
}

/** Classify a type token; returns false if not a type token. */
bool
typePart(const std::string &p, RegClass &cls, bool &is_float,
         bool &is_signed)
{
    if (p == "u32" || p == "b32") {
        cls = RegClass::B32; is_float = false; is_signed = false;
        return true;
    }
    if (p == "s32") {
        cls = RegClass::B32; is_float = false; is_signed = true;
        return true;
    }
    if (p == "f32") {
        cls = RegClass::B32; is_float = true; is_signed = false;
        return true;
    }
    if (p == "u64" || p == "b64") {
        cls = RegClass::B64; is_float = false; is_signed = false;
        return true;
    }
    if (p == "s64") {
        cls = RegClass::B64; is_float = false; is_signed = true;
        return true;
    }
    return false;
}

/** Resolved memory operand, computed before the consuming VInstr. */
struct MemRef {
    int vra = -1;
    bool ra_is_phys = false;
    uint8_t phys_ra = 0;
    int64_t imm = 0;
};

/** Per-function code generator. */
class FuncCompiler
{
  public:
    FuncCompiler(const FuncDecl &fn, const ModuleLayout &layout,
                 isa::ArchFamily family)
        : fn_(fn), layout_(layout), family_(family)
    {}

    CompiledFunction
    run()
    {
        out_fn_.name = fn_.name;
        out_fn_.is_entry = fn_.is_entry;

        declareRegisters();
        for (const Stmt &s : fn_.body)
            if (s.is_label)
                labels_.insert(s.label);
        layoutLocalsAndShared();
        layoutParams();
        bindFuncParams();

        for (size_t i = 0; i < fn_.body.size(); ++i)
            translateStmt(i);

        RegAlloc ra = allocateRegisters(vinstrs_, vregs_);
        lower(ra);
        return std::move(out_fn_);
    }

  private:
    [[noreturn]] void
    err(int line, const std::string &msg) const
    {
        throw CompileError{strfmt("%s: %s", fn_.name.c_str(), msg.c_str()),
                           line};
    }

    // ===== Setup ========================================================

    void
    declareRegisters()
    {
        for (const auto &[name, cls] : fn_.regs) {
            int id = static_cast<int>(vregs_.size());
            vregs_.push_back({cls, name});
            vreg_ids_[name] = id;
        }
    }

    void
    layoutLocalsAndShared()
    {
        for (const VarDecl &v : fn_.locals) {
            local_size_ = alignUp(local_size_, v.align);
            local_off_[v.name] = local_size_;
            local_size_ = capped(local_size_, v, ".local", kMaxLocalBytes);
        }
        uint32_t soff = 0;
        for (const VarDecl &v : fn_.shareds) {
            soff = alignUp(soff, v.align);
            shared_off_[v.name] = soff;
            soff = capped(soff, v, ".shared", kMaxSharedBytes);
        }
        out_fn_.shared_bytes = soff;
    }

    /** @p off + @p v's size, or a CompileError past @p cap bytes. */
    uint32_t
    capped(uint32_t off, const VarDecl &v, const char *space,
           uint64_t cap) const
    {
        uint64_t end = uint64_t{off} + v.size_bytes;
        if (end > cap)
            err(v.line, strfmt("%s variables need more than %llu bytes",
                               space, static_cast<unsigned long long>(cap)));
        return static_cast<uint32_t>(end);
    }

    void
    layoutParams()
    {
        uint32_t off = 0;
        for (const ParamInfo &p : fn_.params) {
            unsigned bytes = paramBytes(p.kind);
            off = alignUp(off, bytes);
            ParamInfo cp = p;
            cp.bank0_offset = off;
            off += bytes;
            param_off_[p.name] = cp.bank0_offset;
            out_fn_.params.push_back(cp);
        }
        out_fn_.param_bytes = off;
    }

    /** .func parameters arrive in registers; copy them into vregs. */
    void
    bindFuncParams()
    {
        if (fn_.is_entry)
            return;
        std::vector<bool> is64;
        for (const ParamInfo &p : fn_.params)
            is64.push_back(p.kind == ParamKind::U64);
        auto slots = isa::abiAssignArgRegs(is64);
        if (!slots)
            err(fn_.line, "too many parameters for register passing");
        for (size_t i = 0; i < fn_.params.size(); ++i) {
            const ParamInfo &p = fn_.params[i];
            RegClass cls = p.kind == ParamKind::U64 ? RegClass::B64
                                                    : RegClass::B32;
            int v = newTmp(cls, "$param_" + p.name);
            VInstr vi;
            vi.templ.op = Opcode::MOV;
            if (cls == RegClass::B64)
                vi.templ.mod = isa::modSetDType(0, DType::U64);
            vi.vrd = v;
            vi.ra_is_phys = true;
            vi.phys_ra = (*slots)[i].reg;
            vinstrs_.push_back(std::move(vi));
            param_vreg_[p.name] = v;
        }
    }

    // ===== vreg helpers =================================================

    int
    newTmp(RegClass cls, const std::string &name)
    {
        int id = static_cast<int>(vregs_.size());
        vregs_.push_back({cls, name});
        return id;
    }

    int
    vregOf(const std::string &name, int line)
    {
        auto it = vreg_ids_.find(name);
        if (it == vreg_ids_.end())
            err(line, strfmt("undeclared register '%s'", name.c_str()));
        return it->second;
    }

    int
    vregOfClass(const std::string &name, RegClass cls, int line)
    {
        int v = vregOf(name, line);
        if (vregs_[v].cls != cls)
            err(line, strfmt("register '%s' has the wrong class",
                             name.c_str()));
        return v;
    }

    RegClass
    clsOf(int v) const
    {
        return vregs_[v].cls;
    }

    // ===== Emission helpers =============================================

    /** Append a VInstr; returns its index (references go stale!). */
    size_t
    emit(VInstr vi)
    {
        vi.src_line = cur_line_;
        vi.loc_file = cur_loc_file_;
        vi.loc_line = cur_loc_line_;
        vinstrs_.push_back(std::move(vi));
        return vinstrs_.size() - 1;
    }

    static VInstr
    mk(Opcode op)
    {
        VInstr vi;
        vi.templ.op = op;
        return vi;
    }

    /** Emit MOV/LUI+OR to materialise a 32-bit constant into a vreg. */
    int
    mat32(uint32_t value)
    {
        int v = newTmp(RegClass::B32, "$imm");
        int32_t sv = static_cast<int32_t>(value);
        if (fitsImm24(sv)) {
            VInstr m = mk(Opcode::MOV);
            m.templ.mod = isa::kModImmSrc2;
            m.templ.imm = sv;
            m.vrd = v;
            emit(std::move(m));
        } else {
            VInstr l = mk(Opcode::LUI);
            l.templ.mod = isa::kModImmSrc2;
            l.templ.imm = static_cast<int64_t>(value >> 16);
            l.vrd = v;
            emit(std::move(l));
            VInstr o = mk(Opcode::OR);
            o.templ.mod = isa::kModImmSrc2;
            o.templ.imm = static_cast<int64_t>(value & 0xFFFFu);
            o.vrd = v;
            o.vra = v;
            emit(std::move(o));
        }
        return v;
    }

    /** Materialise a 64-bit constant into a B64 vreg. */
    int
    mat64(uint64_t value)
    {
        if (fitsImm24(static_cast<int64_t>(value))) {
            int v = newTmp(RegClass::B64, "$imm64");
            VInstr m = mk(Opcode::MOV);
            m.templ.mod = isa::modSetDType(isa::kModImmSrc2, DType::U64);
            m.templ.imm = static_cast<int64_t>(value);
            m.vrd = v;
            emit(std::move(m));
            return v;
        }
        // hi:lo construction: v = ((u64)hi << 32) + (u64)lo
        int lo = mat32(static_cast<uint32_t>(value));
        int hi = mat32(static_cast<uint32_t>(value >> 32));
        int hi64 = newTmp(RegClass::B64, "$immhi");
        VInstr w1;
        w1.kind = VInstr::Kind::Widen;
        w1.vrd = hi64;
        w1.vra = hi;
        emit(std::move(w1));
        VInstr sh = mk(Opcode::SHL);
        sh.templ.mod = isa::modSetDType(isa::kModImmSrc2, DType::U64);
        sh.templ.imm = 32;
        sh.vrd = hi64;
        sh.vra = hi64;
        emit(std::move(sh));
        int lo64 = newTmp(RegClass::B64, "$immlo");
        VInstr w2;
        w2.kind = VInstr::Kind::Widen;
        w2.vrd = lo64;
        w2.vra = lo;
        emit(std::move(w2));
        int v = newTmp(RegClass::B64, "$imm64");
        VInstr add = mk(Opcode::IADD);
        add.templ.mod = isa::modSetDType(0, DType::U64);
        add.vrd = v;
        add.vra = hi64;
        add.vrb = lo64;
        emit(std::move(add));
        return v;
    }

    // ===== Operand resolution (may emit materialisation code) ==========

    int
    valueB32(const AsmOperand &op, int line)
    {
        switch (op.kind) {
          case AsmOperand::Kind::Reg: {
            auto sp = kSpecialByName.find(op.name);
            if (sp != kSpecialByName.end()) {
                int v = newTmp(RegClass::B32, "$sreg");
                VInstr s = mk(Opcode::S2R);
                s.templ.imm = static_cast<int64_t>(sp->second);
                s.vrd = v;
                emit(std::move(s));
                return v;
            }
            return vregOfClass(op.name, RegClass::B32, line);
          }
          case AsmOperand::Kind::Int:
            return mat32(static_cast<uint32_t>(op.ival));
          case AsmOperand::Kind::Float:
            return mat32(f32Bits(op.fval));
          default:
            err(line, "expected a 32-bit value operand");
        }
    }

    int
    valueB64(const AsmOperand &op, int line)
    {
        switch (op.kind) {
          case AsmOperand::Kind::Reg:
            return vregOfClass(op.name, RegClass::B64, line);
          case AsmOperand::Kind::Int:
            return mat64(static_cast<uint64_t>(op.ival));
          default:
            err(line, "expected a 64-bit value operand");
        }
    }

    int
    value(const AsmOperand &op, RegClass cls, int line)
    {
        return cls == RegClass::B64 ? valueB64(op, line)
                                    : valueB32(op, line);
    }

    int
    destReg(const AsmOperand &op, RegClass cls, int line)
    {
        if (op.kind != AsmOperand::Kind::Reg)
            err(line, "destination must be a register");
        return vregOfClass(op.name, cls, line);
    }

    int
    predReg(const std::string &name, int line)
    {
        return vregOfClass(name, RegClass::Pred, line);
    }

    /**
     * Resolve a memory operand for @p space; may emit an address load
     * for global symbols.  Call BEFORE emitting the consumer.
     */
    MemRef
    resolveMem(const AsmOperand &mem, isa::MemSpace space, int line)
    {
        if (mem.kind != AsmOperand::Kind::Mem)
            err(line, "memory operand expected");
        MemRef r;
        r.imm = mem.ival;
        if (mem.base_is_reg) {
            if (space == isa::MemSpace::CONSTANT)
                err(line, "ld.const requires a symbol or literal offset");
            if (space == isa::MemSpace::GLOBAL)
                r.vra = vregOfClass(mem.name, RegClass::B64, line);
            else
                r.vra = vregOfClass(mem.name, RegClass::B32, line);
            return r;
        }
        const std::string &sym = mem.name;
        switch (space) {
          case isa::MemSpace::LOCAL:
            if (auto it = local_off_.find(sym); it != local_off_.end()) {
                r.ra_is_phys = true;
                r.phys_ra = isa::kAbiSpReg;
                r.imm += it->second;
                return r;
            }
            break;
          case isa::MemSpace::SHARED:
            if (auto it = shared_off_.find(sym);
                it != shared_off_.end()) {
                r.ra_is_phys = true;
                r.phys_ra = isa::kRegZ;
                r.imm += it->second;
                return r;
            }
            break;
          case isa::MemSpace::CONSTANT:
            if (auto it = layout_.const_off.find(sym);
                it != layout_.const_off.end()) {
                r.imm += it->second;
                return r;
            }
            break;
          case isa::MemSpace::GLOBAL:
            if (auto it = layout_.global_slot.find(sym);
                it != layout_.global_slot.end()) {
                int a = newTmp(RegClass::B64, "$gaddr");
                VInstr ld = mk(Opcode::LDC);
                ld.templ.mod = isa::modSetCBank(isa::kModSize64, layout_.const_bank);
                ld.templ.imm = it->second;
                ld.vrd = a;
                emit(std::move(ld));
                r.vra = a;
                return r;
            }
            break;
          default:
            break;
        }
        err(line, strfmt("unknown memory symbol '%s'", sym.c_str()));
    }

    static void
    applyMem(VInstr &vi, const MemRef &m)
    {
        vi.vra = m.vra;
        vi.ra_is_phys = m.ra_is_phys;
        vi.phys_ra = m.phys_ra;
        vi.templ.imm = m.imm;
    }

    // ===== Statement translation ========================================

    void
    translateStmt(size_t idx)
    {
        const Stmt &s = fn_.body[idx];
        if (s.is_label) {
            VInstr vi;
            vi.kind = VInstr::Kind::Label;
            vi.label = labelId(s.label);
            vinstrs_.push_back(std::move(vi));
            return;
        }
        const AsmInstr &in = s.instr;
        cur_line_ = in.line;
        cur_loc_file_ = in.loc_file;
        cur_loc_line_ = in.loc_line;

        size_t first = vinstrs_.size();
        if (in.is_call)
            translateCall(in);
        else
            translateInstr(in, idx);

        // Apply the guard predicate to the primary (last) instruction
        // emitted for this statement; materialisation prefixes run
        // unconditionally, which is safe (they only define temps).
        if (!in.pred.empty() && vinstrs_.size() > first) {
            VInstr &vi = vinstrs_.back();
            vi.vpg = predReg(in.pred, in.line);
            vi.pg_neg = in.pred_neg;
        }
    }

    int
    labelId(const std::string &name)
    {
        auto it = label_ids_.find(name);
        if (it != label_ids_.end())
            return it->second;
        int id = static_cast<int>(label_ids_.size());
        label_ids_[name] = id;
        return id;
    }

    void
    translateCall(const AsmInstr &in)
    {
        if (!in.pred.empty())
            err(in.line, "predicated call is not supported; branch "
                         "around the call instead");
        VInstr vi;
        vi.kind = VInstr::Kind::Call;
        vi.callee = in.callee;
        for (const std::string &a : in.call_args)
            vi.args.push_back(vregOf(a, in.line));
        if (!in.call_ret.empty()) {
            vi.ret_vreg = vregOf(in.call_ret, in.line);
            if (clsOf(vi.ret_vreg) == RegClass::Pred)
                err(in.line, "predicate return values are unsupported");
        }
        if (in.callee.rfind("nvbit_", 0) == 0)
            out_fn_.uses_device_api = true;
        emit(std::move(vi));
    }

    void
    translateInstr(const AsmInstr &in, size_t stmt_idx)
    {
        const std::vector<std::string> parts = splitDots(in.opcode);
        const std::string &mn = parts[0];
        const int line = in.line;

        RegClass cls = RegClass::B32;
        bool is_float = false, is_signed = false;
        for (size_t i = 1; i < parts.size(); ++i) {
            if (typePart(parts[i], cls, is_float, is_signed))
                break;
        }

        if (mn == "mov") {
            translateMov(in, cls, line);
        } else if (mn == "ld") {
            translateLoad(in, parts, cls, line);
        } else if (mn == "st") {
            translateStore(in, parts, cls, line, stmt_idx);
        } else if (mn == "add" || mn == "sub" || mn == "mul" ||
                   mn == "min" || mn == "max" || mn == "and" ||
                   mn == "or" || mn == "xor" || mn == "shl" ||
                   mn == "shr") {
            translateAlu2(in, parts, cls, is_float, is_signed, line);
        } else if (mn == "mad" || mn == "fma") {
            translateMad(in, parts, cls, is_float, line);
        } else if (mn == "not") {
            int a = valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::NOT);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
        } else if (mn == "neg") {
            if (is_float) {
                int a = valueB32(in.ops.at(1), line);
                int m = mat32(0x80000000u);
                VInstr vi = mk(Opcode::XOR);
                vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
                vi.vra = a;
                vi.vrb = m;
                emit(std::move(vi));
            } else {
                int b = valueB32(in.ops.at(1), line);
                VInstr vi = mk(Opcode::ISUB);
                vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
                vi.ra_is_phys = true;
                vi.phys_ra = isa::kRegZ;
                vi.vrb = b;
                emit(std::move(vi));
            }
        } else if (mn == "abs") {
            if (!is_float)
                err(line, "abs is only supported for .f32");
            int a = valueB32(in.ops.at(1), line);
            int m = mat32(0x7FFFFFFFu);
            VInstr vi = mk(Opcode::AND);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            vi.vrb = m;
            emit(std::move(vi));
        } else if (mn == "popc") {
            int a = valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::POPC);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
        } else if (mn == "rcp" || mn == "sqrt" || mn == "rsqrt" ||
                   mn == "ex2" || mn == "lg2" || mn == "sin" ||
                   mn == "cos") {
            isa::MufuOp f = isa::MufuOp::RCP;
            if (mn == "sqrt") f = isa::MufuOp::SQRT;
            else if (mn == "rsqrt") f = isa::MufuOp::RSQ;
            else if (mn == "ex2") f = isa::MufuOp::EX2;
            else if (mn == "lg2") f = isa::MufuOp::LG2;
            else if (mn == "sin") f = isa::MufuOp::SIN;
            else if (mn == "cos") f = isa::MufuOp::COS;
            int a = valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::MUFU);
            vi.templ.mod = isa::modSetMufu(0, f);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
        } else if (mn == "cvt") {
            translateCvt(in, parts, line);
        } else if (mn == "setp") {
            translateSetp(in, parts, line);
        } else if (mn == "selp") {
            int a = valueB32(in.ops.at(1), line);
            int b = valueB32(in.ops.at(2), line);
            if (in.ops.at(3).kind != AsmOperand::Kind::Reg)
                err(line, "selp predicate must be a register");
            int p = predReg(in.ops.at(3).name, line);
            VInstr vi = mk(Opcode::SEL);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            vi.vrb = b;
            vi.vps = p;
            emit(std::move(vi));
        } else if (mn == "vote") {
            translateVote(in, parts, line);
        } else if (mn == "match") {
            int a = cls == RegClass::B64 ? valueB64(in.ops.at(1), line)
                                         : valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::MATCH);
            if (cls == RegClass::B64)
                vi.templ.mod |= isa::kModSize64;
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
        } else if (mn == "shfl") {
            isa::ShflMode m = isa::ShflMode::IDX;
            for (const std::string &p : parts) {
                if (p == "up") m = isa::ShflMode::UP;
                else if (p == "down") m = isa::ShflMode::DOWN;
                else if (p == "bfly") m = isa::ShflMode::BFLY;
            }
            int a = valueB32(in.ops.at(1), line);
            const AsmOperand &lane = in.ops.at(2);
            int lb = -1;
            if (lane.kind != AsmOperand::Kind::Int)
                lb = valueB32(lane, line);
            VInstr vi = mk(Opcode::SHFL);
            vi.templ.mod = isa::modSetShflMode(0, m);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            if (lane.kind == AsmOperand::Kind::Int) {
                vi.templ.mod |= isa::kModShflImm;
                vi.templ.imm = lane.ival;
            } else {
                vi.vrb = lb;
            }
            emit(std::move(vi));
        } else if (mn == "atom" || mn == "red") {
            translateAtom(in, parts, line, mn == "red");
        } else if (mn == "bar" || mn == "barrier") {
            emit(mk(Opcode::BAR));
        } else if (mn == "bra") {
            if (in.ops.at(0).kind != AsmOperand::Kind::Sym)
                err(line, "branch target must be a label");
            if (!labels_.count(in.ops[0].name))
                err(line, strfmt("undefined label '%s'",
                                 in.ops[0].name.c_str()));
            VInstr vi;
            vi.kind = VInstr::Kind::Bra;
            vi.label = labelId(in.ops[0].name);
            emit(std::move(vi));
        } else if (mn == "ret") {
            emit(mk(fn_.is_entry ? Opcode::EXIT : Opcode::RET));
        } else if (mn == "exit") {
            emit(mk(Opcode::EXIT));
        } else if (mn == "proxyop") {
            int a = value(in.ops.at(1), cls, line);
            int64_t id = 0;
            if (in.ops.size() > 2) {
                if (in.ops.at(2).kind != AsmOperand::Kind::Int)
                    err(line, "proxyop id must be an immediate");
                id = in.ops[2].ival;
            }
            VInstr vi = mk(Opcode::PROXY);
            if (cls == RegClass::B64)
                vi.templ.mod |= isa::kModSize64;
            vi.templ.imm = id;
            vi.vrd = destReg(in.ops.at(0), cls, line);
            vi.vra = a;
            emit(std::move(vi));
        } else if (mn == "div" || mn == "rem") {
            err(line, "div/rem have no machine instruction; restructure "
                      "the kernel to avoid them");
        } else {
            err(line, strfmt("unsupported instruction '%s'",
                             in.opcode.c_str()));
        }
    }

    void
    translateMov(const AsmInstr &in, RegClass cls, int line)
    {
        const AsmOperand &dst = in.ops.at(0);
        const AsmOperand &src = in.ops.at(1);

        if (src.kind == AsmOperand::Kind::Sym) {
            const std::string &sym = src.name;
            if (auto it = local_off_.find(sym); it != local_off_.end()) {
                VInstr vi = mk(Opcode::IADD);
                vi.templ.mod = isa::kModImmSrc2;
                vi.templ.imm = it->second;
                vi.vrd = destReg(dst, RegClass::B32, line);
                vi.ra_is_phys = true;
                vi.phys_ra = isa::kAbiSpReg;
                emit(std::move(vi));
                return;
            }
            if (auto it = shared_off_.find(sym);
                it != shared_off_.end()) {
                VInstr vi = mk(Opcode::MOV);
                vi.templ.mod = isa::kModImmSrc2;
                vi.templ.imm = it->second;
                vi.vrd = destReg(dst, RegClass::B32, line);
                emit(std::move(vi));
                return;
            }
            if (auto it = layout_.global_slot.find(sym);
                it != layout_.global_slot.end()) {
                VInstr vi = mk(Opcode::LDC);
                vi.templ.mod = isa::modSetCBank(isa::kModSize64, layout_.const_bank);
                vi.templ.imm = it->second;
                vi.vrd = destReg(dst, RegClass::B64, line);
                emit(std::move(vi));
                return;
            }
            if (auto it = param_vreg_.find(sym);
                it != param_vreg_.end()) {
                int pv = it->second;
                RegClass pc = clsOf(pv);
                VInstr vi = mk(Opcode::MOV);
                if (pc == RegClass::B64)
                    vi.templ.mod = isa::modSetDType(0, DType::U64);
                vi.vrd = destReg(dst, pc, line);
                vi.vra = pv;
                emit(std::move(vi));
                return;
            }
            err(line, strfmt("unknown symbol '%s' in mov", sym.c_str()));
        }

        if (cls == RegClass::B64) {
            // Direct immediate form avoids a temp for small constants.
            if (src.kind == AsmOperand::Kind::Int &&
                fitsImm24(src.ival)) {
                VInstr vi = mk(Opcode::MOV);
                vi.templ.mod =
                    isa::modSetDType(isa::kModImmSrc2, DType::U64);
                vi.templ.imm = src.ival;
                vi.vrd = destReg(dst, RegClass::B64, line);
                emit(std::move(vi));
                return;
            }
            int v = valueB64(src, line);
            VInstr vi = mk(Opcode::MOV);
            vi.templ.mod = isa::modSetDType(0, DType::U64);
            vi.vrd = destReg(dst, RegClass::B64, line);
            vi.vra = v;
            emit(std::move(vi));
        } else if (cls == RegClass::Pred) {
            err(line, "mov of predicates is not supported");
        } else {
            if (src.kind == AsmOperand::Kind::Int && fitsImm24(src.ival)) {
                VInstr vi = mk(Opcode::MOV);
                vi.templ.mod = isa::kModImmSrc2;
                vi.templ.imm = src.ival;
                vi.vrd = destReg(dst, RegClass::B32, line);
                emit(std::move(vi));
                return;
            }
            int v = valueB32(src, line);
            VInstr vi = mk(Opcode::MOV);
            vi.vrd = destReg(dst, RegClass::B32, line);
            vi.vra = v;
            emit(std::move(vi));
        }
    }

    void
    translateLoad(const AsmInstr &in, const std::vector<std::string> &parts,
                  RegClass cls, int line)
    {
        const bool size64 = cls == RegClass::B64;
        std::string space = parts.size() > 1 ? parts[1] : "";
        if (space == "volatile")
            space = parts.size() > 2 ? parts[2] : "";

        if (space == "param") {
            const AsmOperand &mem = in.ops.at(1);
            if (mem.kind != AsmOperand::Kind::Mem || mem.base_is_reg)
                err(line, "ld.param requires [paramname]");
            if (fn_.is_entry) {
                auto it = param_off_.find(mem.name);
                if (it == param_off_.end())
                    err(line, strfmt("unknown parameter '%s'",
                                     mem.name.c_str()));
                VInstr vi = mk(Opcode::LDC);
                vi.templ.mod =
                    isa::modSetCBank(size64 ? isa::kModSize64 : 0, 0);
                vi.templ.imm = it->second + mem.ival;
                vi.vrd = destReg(in.ops.at(0), cls, line);
                emit(std::move(vi));
            } else {
                auto it = param_vreg_.find(mem.name);
                if (it == param_vreg_.end())
                    err(line, strfmt("unknown parameter '%s'",
                                     mem.name.c_str()));
                VInstr vi = mk(Opcode::MOV);
                if (size64)
                    vi.templ.mod = isa::modSetDType(0, DType::U64);
                vi.vrd = destReg(in.ops.at(0), cls, line);
                vi.vra = it->second;
                emit(std::move(vi));
            }
            return;
        }

        Opcode op;
        isa::MemSpace msp;
        if (space == "global") {
            op = Opcode::LDG; msp = isa::MemSpace::GLOBAL;
        } else if (space == "shared") {
            op = Opcode::LDS; msp = isa::MemSpace::SHARED;
        } else if (space == "local") {
            op = Opcode::LDL; msp = isa::MemSpace::LOCAL;
        } else if (space == "const") {
            op = Opcode::LDC; msp = isa::MemSpace::CONSTANT;
        } else {
            err(line, strfmt("unsupported load space '%s'",
                             space.c_str()));
        }

        MemRef m = resolveMem(in.ops.at(1), msp, line);
        VInstr vi = mk(op);
        if (op == Opcode::LDC)
            vi.templ.mod =
                isa::modSetCBank(size64 ? isa::kModSize64 : 0, layout_.const_bank);
        else if (size64)
            vi.templ.mod |= isa::kModSize64;
        vi.vrd = destReg(in.ops.at(0), cls, line);
        applyMem(vi, m);
        if (op == Opcode::LDC) {
            // LDC has no register base; only the offset survives.
            vi.vra = -1;
            vi.ra_is_phys = false;
        }
        emit(std::move(vi));
    }

    void
    translateStore(const AsmInstr &in,
                   const std::vector<std::string> &parts, RegClass cls,
                   int line, size_t stmt_idx)
    {
        const bool size64 = cls == RegClass::B64;
        std::string space = parts.size() > 1 ? parts[1] : "";
        if (space == "volatile")
            space = parts.size() > 2 ? parts[2] : "";

        if (space == "param") {
            const AsmOperand &mem = in.ops.at(0);
            if (fn_.is_entry || !fn_.has_ret ||
                mem.kind != AsmOperand::Kind::Mem ||
                mem.name != fn_.ret.name) {
                err(line, "st.param is only valid for the declared "
                          "return parameter of a .func");
            }
            bool next_is_ret = false;
            for (size_t j = stmt_idx + 1; j < fn_.body.size(); ++j) {
                if (fn_.body[j].is_label)
                    continue;
                next_is_ret = !fn_.body[j].instr.is_call &&
                              fn_.body[j].instr.opcode == "ret";
                break;
            }
            if (!next_is_ret)
                err(line, "st.param must immediately precede 'ret'");
            int v = value(in.ops.at(1), cls, line);
            VInstr vi = mk(Opcode::MOV);
            if (size64)
                vi.templ.mod = isa::modSetDType(0, DType::U64);
            vi.rd_is_phys = true;
            vi.phys_rd = isa::kAbiRetReg;
            vi.vra = v;
            emit(std::move(vi));
            return;
        }

        Opcode op;
        isa::MemSpace msp;
        if (space == "global") {
            op = Opcode::STG; msp = isa::MemSpace::GLOBAL;
        } else if (space == "shared") {
            op = Opcode::STS; msp = isa::MemSpace::SHARED;
        } else if (space == "local") {
            op = Opcode::STL; msp = isa::MemSpace::LOCAL;
        } else {
            err(line, strfmt("unsupported store space '%s'",
                             space.c_str()));
        }

        int v = value(in.ops.at(1), cls, line);
        MemRef m = resolveMem(in.ops.at(0), msp, line);
        VInstr vi = mk(op);
        if (size64)
            vi.templ.mod |= isa::kModSize64;
        vi.vrb = v;
        applyMem(vi, m);
        emit(std::move(vi));
    }

    void
    translateAlu2(const AsmInstr &in,
                  const std::vector<std::string> &parts, RegClass cls,
                  bool is_float, bool is_signed, int line)
    {
        const std::string &mn = parts[0];
        const AsmOperand &dst = in.ops.at(0);
        const AsmOperand &a = in.ops.at(1);
        const AsmOperand &b = in.ops.at(2);

        // mul.wide.u32: 64-bit product of 32-bit sources.
        bool wide_mul = (mn == "mul") &&
                        std::find(parts.begin(), parts.end(), "wide") !=
                            parts.end();
        if (wide_mul) {
            int va = valueB32(a, line);
            int vb = valueB32(b, line);
            VInstr vi = mk(Opcode::IMAD);
            vi.templ.mod = isa::modSetDType(0, DType::U64);
            vi.vrd = destReg(dst, RegClass::B64, line);
            vi.vra = va;
            vi.vrb = vb; // addend rc = RZ pair (zero)
            emit(std::move(vi));
            return;
        }

        // f32 subtraction: a + (-b).
        if (is_float && mn == "sub") {
            int va = valueB32(a, line);
            int vb = valueB32(b, line);
            int m = mat32(0x80000000u);
            int nb = newTmp(RegClass::B32, "$negb");
            VInstr x = mk(Opcode::XOR);
            x.vrd = nb;
            x.vra = vb;
            x.vrb = m;
            emit(std::move(x));
            VInstr vi = mk(Opcode::FADD);
            vi.templ.mod = isa::modSetDType(0, DType::F32);
            vi.vrd = destReg(dst, RegClass::B32, line);
            vi.vra = va;
            vi.vrb = nb;
            emit(std::move(vi));
            return;
        }

        Opcode op;
        uint8_t mod = 0;
        if (is_float) {
            if (mn == "add") op = Opcode::FADD;
            else if (mn == "mul") op = Opcode::FMUL;
            else if (mn == "min") op = Opcode::FMNMX;
            else if (mn == "max") {
                op = Opcode::FMNMX;
                mod |= isa::kModMnmxMax;
            } else {
                err(line, strfmt("unsupported f32 op '%s'", mn.c_str()));
            }
        } else {
            if (mn == "add") op = Opcode::IADD;
            else if (mn == "sub") op = Opcode::ISUB;
            else if (mn == "mul") op = Opcode::IMUL;
            else if (mn == "min") op = Opcode::IMNMX;
            else if (mn == "max") {
                op = Opcode::IMNMX;
                mod |= isa::kModMnmxMax;
            }
            else if (mn == "and") op = Opcode::AND;
            else if (mn == "or") op = Opcode::OR;
            else if (mn == "xor") op = Opcode::XOR;
            else if (mn == "shl") op = Opcode::SHL;
            else if (mn == "shr") op = Opcode::SHR;
            else err(line, strfmt("unsupported op '%s'", mn.c_str()));
        }

        bool bitwise = op == Opcode::AND || op == Opcode::OR ||
                       op == Opcode::XOR;
        bool mnmx = op == Opcode::IMNMX;
        if (cls == RegClass::B64 && (bitwise || mnmx))
            err(line, strfmt("%s is only supported at 32 bits",
                             mn.c_str()));

        DType dt = DType::U32;
        if (is_float)
            dt = DType::F32;
        else if (cls == RegClass::B64)
            dt = DType::U64;
        else if (is_signed)
            dt = DType::S32;
        mod = isa::modSetDType(mod, dt);

        bool shift = op == Opcode::SHL || op == Opcode::SHR;
        RegClass acls = cls;
        RegClass bcls = shift ? RegClass::B32 : cls;

        int va = value(a, acls, line);
        bool use_imm = !is_float && b.kind == AsmOperand::Kind::Int &&
                       fitsImm24(b.ival);
        int vb = -1;
        if (!use_imm)
            vb = value(b, bcls, line);

        VInstr vi = mk(op);
        vi.templ.mod = mod;
        vi.vrd = destReg(dst, cls, line);
        vi.vra = va;
        if (use_imm) {
            vi.templ.mod |= isa::kModImmSrc2;
            vi.templ.imm = b.ival;
        } else {
            vi.vrb = vb;
        }
        emit(std::move(vi));
    }

    void
    translateMad(const AsmInstr &in,
                 const std::vector<std::string> &parts, RegClass cls,
                 bool is_float, int line)
    {
        bool wide = std::find(parts.begin(), parts.end(), "wide") !=
                    parts.end();
        if (is_float || parts[0] == "fma") {
            int a = valueB32(in.ops.at(1), line);
            int b = valueB32(in.ops.at(2), line);
            int c = valueB32(in.ops.at(3), line);
            VInstr vi = mk(Opcode::FFMA);
            vi.templ.mod = isa::modSetDType(0, DType::F32);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            vi.vrb = b;
            vi.vrc = c;
            emit(std::move(vi));
            return;
        }
        if (wide) {
            int a = valueB32(in.ops.at(1), line);
            int b = valueB32(in.ops.at(2), line);
            int c = valueB64(in.ops.at(3), line);
            VInstr vi = mk(Opcode::IMAD);
            vi.templ.mod = isa::modSetDType(0, DType::U64);
            vi.vrd = destReg(in.ops.at(0), RegClass::B64, line);
            vi.vra = a;
            vi.vrb = b;
            vi.vrc = c;
            emit(std::move(vi));
            return;
        }
        if (cls == RegClass::B64)
            err(line, "mad.lo.u64 is unsupported; use mad.wide.u32");
        int a = valueB32(in.ops.at(1), line);
        int b = valueB32(in.ops.at(2), line);
        int c = valueB32(in.ops.at(3), line);
        VInstr vi = mk(Opcode::IMAD);
        vi.templ.mod = isa::modSetDType(0, DType::U32);
        vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
        vi.vra = a;
        vi.vrb = b;
        vi.vrc = c;
        emit(std::move(vi));
    }

    void
    translateCvt(const AsmInstr &in,
                 const std::vector<std::string> &parts, int line)
    {
        std::vector<std::string> types;
        for (size_t i = 1; i < parts.size(); ++i) {
            RegClass c;
            bool f, s;
            if (typePart(parts[i], c, f, s))
                types.push_back(parts[i]);
        }
        if (types.size() != 2)
            err(line, "cvt requires destination and source types");
        const std::string &d = types[0], &s = types[1];

        auto is32 = [](const std::string &t) { return t.substr(1) == "32"; };
        auto is64 = [](const std::string &t) { return t.substr(1) == "64"; };

        if (d == "f32" && (s == "s32" || s == "u32")) {
            int a = valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::I2F);
            vi.templ.mod = isa::modSetDType(
                0, s == "s32" ? DType::S32 : DType::U32);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
            return;
        }
        if ((d == "s32" || d == "u32") && s == "f32") {
            int a = valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::F2I);
            vi.templ.mod = isa::modSetDType(
                0, d == "s32" ? DType::S32 : DType::U32);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
            return;
        }
        if (is64(d) && is32(s) && d != "f64" && s != "f32") {
            int a = valueB32(in.ops.at(1), line);
            VInstr vi;
            vi.kind = (d == "s64" && s == "s32")
                          ? VInstr::Kind::WidenSigned
                          : VInstr::Kind::Widen;
            vi.vrd = destReg(in.ops.at(0), RegClass::B64, line);
            vi.vra = a;
            emit(std::move(vi));
            return;
        }
        if (is32(d) && is64(s) && d != "f32") {
            int a = valueB64(in.ops.at(1), line);
            VInstr vi;
            vi.kind = VInstr::Kind::Narrow;
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
            return;
        }
        if (is32(d) && is32(s)) {
            int a = valueB32(in.ops.at(1), line);
            VInstr vi = mk(Opcode::MOV);
            vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
            vi.vra = a;
            emit(std::move(vi));
            return;
        }
        err(line, strfmt("unsupported conversion cvt.%s.%s", d.c_str(),
                         s.c_str()));
    }

    void
    translateSetp(const AsmInstr &in,
                  const std::vector<std::string> &parts, int line)
    {
        if (parts.size() < 3)
            err(line, "setp requires a comparison and a type");
        isa::CmpOp cmp;
        const std::string &c = parts[1];
        if (c == "lt") cmp = isa::CmpOp::LT;
        else if (c == "eq") cmp = isa::CmpOp::EQ;
        else if (c == "le") cmp = isa::CmpOp::LE;
        else if (c == "gt") cmp = isa::CmpOp::GT;
        else if (c == "ne") cmp = isa::CmpOp::NE;
        else if (c == "ge") cmp = isa::CmpOp::GE;
        else err(line, strfmt("unsupported comparison '%s'", c.c_str()));

        RegClass cls;
        bool is_float, is_signed;
        if (!typePart(parts[2], cls, is_float, is_signed))
            err(line, strfmt("bad setp type '%s'", parts[2].c_str()));

        const AsmOperand &pd = in.ops.at(0);
        if (pd.kind != AsmOperand::Kind::Reg)
            err(line, "setp destination must be a predicate register");
        int vp = predReg(pd.name, line);

        if (is_float) {
            int a = valueB32(in.ops.at(1), line);
            int b = valueB32(in.ops.at(2), line);
            VInstr vi = mk(Opcode::FSETP);
            vi.templ.mod = isa::modSetCmp(0, cmp);
            vi.vpd = vp;
            vi.vra = a;
            vi.vrb = b;
            emit(std::move(vi));
            return;
        }
        DType dt = cls == RegClass::B64
                       ? DType::U64
                       : (is_signed ? DType::S32 : DType::U32);
        int a = value(in.ops.at(1), cls, line);
        const AsmOperand &b = in.ops.at(2);
        bool use_imm = b.kind == AsmOperand::Kind::Int &&
                       fitsImm24(b.ival);
        int vb = -1;
        if (!use_imm)
            vb = value(b, cls, line);
        VInstr vi = mk(Opcode::ISETP);
        vi.templ.mod = isa::modSetSetpDType(isa::modSetCmp(0, cmp), dt);
        vi.vpd = vp;
        vi.vra = a;
        if (use_imm) {
            vi.templ.mod |= isa::kModSetpImm;
            vi.templ.imm = b.ival;
        } else {
            vi.vrb = vb;
        }
        emit(std::move(vi));
    }

    void
    translateVote(const AsmInstr &in,
                  const std::vector<std::string> &parts, int line)
    {
        isa::VoteMode m = isa::VoteMode::BALLOT;
        for (const std::string &p : parts) {
            if (p == "any") m = isa::VoteMode::ANY;
            else if (p == "all") m = isa::VoteMode::ALL;
            else if (p == "ballot") m = isa::VoteMode::BALLOT;
        }
        const AsmOperand &src = in.ops.at(1);
        int vps = -1;
        if (src.kind == AsmOperand::Kind::Int) {
            if (src.ival != 1)
                err(line, "vote source immediate must be 1 (true)");
        } else if (src.kind == AsmOperand::Kind::Reg) {
            if (src.name != "%pt")
                vps = predReg(src.name, line);
        } else {
            err(line, "vote source must be a predicate or 1");
        }
        VInstr vi = mk(Opcode::VOTE);
        vi.templ.mod = isa::modSetVoteMode(0, m);
        vi.vrd = destReg(in.ops.at(0), RegClass::B32, line);
        vi.vps = vps;
        emit(std::move(vi));
    }

    void
    translateAtom(const AsmInstr &in,
                  const std::vector<std::string> &parts, int line,
                  bool is_red)
    {
        isa::AtomOp op = isa::AtomOp::ADD;
        bool found_op = false;
        for (const std::string &p : parts) {
            if (p == "add") { op = isa::AtomOp::ADD; found_op = true; }
            else if (p == "min") { op = isa::AtomOp::MIN; found_op = true; }
            else if (p == "max") { op = isa::AtomOp::MAX; found_op = true; }
            else if (p == "exch") { op = isa::AtomOp::EXCH; found_op = true; }
            else if (p == "cas") { op = isa::AtomOp::CAS; found_op = true; }
            else if (p == "and") { op = isa::AtomOp::AND; found_op = true; }
            else if (p == "or") { op = isa::AtomOp::OR; found_op = true; }
            else if (p == "xor") { op = isa::AtomOp::XOR; found_op = true; }
        }
        if (!found_op)
            err(line, "atom requires an operation");

        DType dt = DType::U32;
        RegClass vcls = RegClass::B32;
        for (const std::string &p : parts) {
            RegClass c;
            bool f, s;
            if (typePart(p, c, f, s)) {
                if (c == RegClass::B64) {
                    dt = DType::U64;
                    vcls = RegClass::B64;
                } else if (f) {
                    dt = DType::F32;
                } else if (s) {
                    dt = DType::S32;
                }
            }
        }

        // red.* has no destination operand; atom.* does.
        size_t mem_i = is_red ? 0 : 1;
        const AsmOperand &mem = in.ops.at(mem_i);
        if (mem.kind != AsmOperand::Kind::Mem)
            err(line, "atom requires a memory operand");
        MemRef mr = resolveMem(mem, isa::MemSpace::GLOBAL, line);
        if (op == isa::AtomOp::CAS && mr.imm != 0)
            err(line, "atom.cas does not support an address offset");
        int vb = value(in.ops.at(mem_i + 1), vcls, line);
        int vc = -1;
        if (op == isa::AtomOp::CAS)
            vc = value(in.ops.at(mem_i + 2), vcls, line);

        VInstr vi = mk(Opcode::ATOM);
        vi.templ.mod =
            isa::modSetAtomDType(isa::modSetAtomOp(0, op), dt);
        vi.vrd = is_red ? -1 : destReg(in.ops.at(0), vcls, line);
        applyMem(vi, mr);
        vi.vrb = vb;
        vi.vrc = vc;
        emit(std::move(vi));
    }

    // ===== Lowering ======================================================

    uint8_t
    gpr(const RegAlloc &ra, int v) const
    {
        return v < 0 ? isa::kRegZ : ra.gpr_of[v];
    }

    void
    lower(const RegAlloc &ra)
    {
        const size_t ib = isa::instrBytes(family_);

        uint32_t local_aligned = alignUp(local_size_, 8);
        bool has_calls = !ra.call_sites.empty();
        uint32_t save_area = has_calls ? (ra.max_gpr_plus1 + 2) * 4 : 0;
        uint32_t frame = alignUp(local_aligned + save_area, 8);
        out_fn_.frame_bytes = frame;
        auto slotOf = [&](uint8_t r) {
            return static_cast<int32_t>(local_aligned + r * 4u);
        };

        std::vector<Instruction> code;
        std::vector<std::pair<size_t, int>> bra_fixups;
        std::map<int, size_t> label_final;

        if (frame > 0) {
            code.push_back(isa::makeIAddImm(
                isa::kAbiSpReg, isa::kAbiSpReg,
                -static_cast<int32_t>(frame)));
        }

        size_t call_site_i = 0;
        for (size_t i = 0; i < vinstrs_.size(); ++i) {
            const VInstr &vi = vinstrs_[i];
            size_t first_idx = code.size();

            uint8_t guard =
                vi.vpg >= 0 ? ra.pred_of[vi.vpg] : isa::kPredT;
            bool guard_neg = vi.pg_neg;
            auto guarded = [&](Instruction in) {
                in.pred = guard;
                in.pred_neg = guard_neg;
                return in;
            };

            switch (vi.kind) {
              case VInstr::Kind::Label:
                label_final[vi.label] = code.size();
                break;

              case VInstr::Kind::Bra: {
                bra_fixups.emplace_back(code.size(), vi.label);
                code.push_back(isa::makeBra(0, guard, guard_neg));
                break;
              }

              case VInstr::Kind::Widen: {
                uint8_t d = gpr(ra, vi.vrd);
                uint8_t a = gpr(ra, vi.vra);
                code.push_back(guarded(isa::makeMovReg(d, a)));
                code.push_back(guarded(isa::makeMovReg(
                    static_cast<uint8_t>(d + 1), isa::kRegZ)));
                break;
              }
              case VInstr::Kind::WidenSigned: {
                uint8_t d = gpr(ra, vi.vrd);
                uint8_t a = gpr(ra, vi.vra);
                code.push_back(guarded(isa::makeMovReg(d, a)));
                Instruction sh;
                sh.op = Opcode::SHR;
                sh.mod = isa::modSetDType(isa::kModImmSrc2, DType::S32);
                sh.rd = static_cast<uint8_t>(d + 1);
                sh.ra = a;
                sh.imm = 31;
                code.push_back(guarded(sh));
                break;
              }
              case VInstr::Kind::Narrow:
                code.push_back(guarded(isa::makeMovReg(
                    gpr(ra, vi.vrd), gpr(ra, vi.vra))));
                break;

              case VInstr::Kind::Call: {
                const RegAlloc::CallSite &cs =
                    ra.call_sites[call_site_i++];
                NVBIT_ASSERT(cs.vindex == i, "call-site mismatch");
                for (uint8_t r : cs.save_regs) {
                    code.push_back(isa::makeStore(
                        Opcode::STL, isa::kAbiSpReg, slotOf(r), r));
                }
                std::vector<bool> is64;
                for (int a : vi.args)
                    is64.push_back(clsOf(a) == RegClass::B64);
                auto slots = isa::abiAssignArgRegs(is64);
                if (!slots) {
                    throw CompileError{
                        strfmt("%s: too many arguments in call to %s",
                               fn_.name.c_str(), vi.callee.c_str()),
                        vi.src_line};
                }
                for (size_t k = 0; k < vi.args.size(); ++k) {
                    uint8_t src = gpr(ra, vi.args[k]);
                    code.push_back(isa::makeLoad(
                        Opcode::LDL, (*slots)[k].reg, isa::kAbiSpReg,
                        slotOf(src), (*slots)[k].is64));
                }
                out_fn_.relocs.push_back(
                    {static_cast<uint32_t>(code.size()), vi.callee});
                if (std::find(out_fn_.related.begin(),
                              out_fn_.related.end(), vi.callee) ==
                    out_fn_.related.end()) {
                    out_fn_.related.push_back(vi.callee);
                }
                code.push_back(isa::makeCalAbs(0));
                bool ret64 = vi.ret_vreg >= 0 &&
                             clsOf(vi.ret_vreg) == RegClass::B64;
                uint8_t retd = gpr(ra, vi.ret_vreg);
                if (vi.ret_vreg >= 0) {
                    code.push_back(isa::makeStore(
                        Opcode::STL, isa::kAbiSpReg, slotOf(retd),
                        isa::kAbiRetReg, ret64));
                }
                for (uint8_t r : cs.restore_regs) {
                    code.push_back(isa::makeLoad(
                        Opcode::LDL, r, isa::kAbiSpReg, slotOf(r)));
                }
                if (vi.ret_vreg >= 0) {
                    code.push_back(isa::makeLoad(
                        Opcode::LDL, retd, isa::kAbiSpReg,
                        slotOf(retd), ret64));
                }
                break;
              }

              case VInstr::Kind::Op: {
                Instruction in = vi.templ;
                in.pred = guard;
                in.pred_neg = guard_neg;

                if (in.op == Opcode::RET && frame > 0) {
                    code.push_back(guarded(isa::makeIAddImm(
                        isa::kAbiSpReg, isa::kAbiSpReg,
                        static_cast<int32_t>(frame))));
                }

                in.rd = vi.rd_is_phys ? vi.phys_rd : gpr(ra, vi.vrd);
                if (vi.vpd >= 0)
                    in.rd = ra.pred_of[vi.vpd];
                in.ra = vi.ra_is_phys ? vi.phys_ra : gpr(ra, vi.vra);
                in.rb = gpr(ra, vi.vrb);
                in.rc = gpr(ra, vi.vrc);

                if (in.op == Opcode::VOTE) {
                    uint8_t p = vi.vps >= 0 ? ra.pred_of[vi.vps]
                                            : isa::kPredT;
                    in.mod = isa::modSetVotePred(in.mod, p, vi.ps_neg);
                } else if (in.op == Opcode::SEL) {
                    uint8_t p = vi.vps >= 0 ? ra.pred_of[vi.vps]
                                            : isa::kPredT;
                    in.mod = isa::modSetSelPred(in.mod, p, vi.ps_neg);
                }
                code.push_back(in);
                break;
              }
            }

            if (vi.loc_file >= 0 && code.size() > first_idx) {
                auto fit = layout_.file_index.find(vi.loc_file);
                if (fit != layout_.file_index.end()) {
                    out_fn_.line_info.push_back(
                        {static_cast<uint32_t>(first_idx), fit->second,
                         static_cast<uint32_t>(vi.loc_line)});
                }
            }
        }

        // Safety net for falling off the end of the body.
        if (frame > 0 && !out_fn_.is_entry) {
            code.push_back(isa::makeIAddImm(
                isa::kAbiSpReg, isa::kAbiSpReg,
                static_cast<int32_t>(frame)));
        }
        code.push_back(out_fn_.is_entry ? isa::makeExit()
                                        : isa::makeRet());

        for (auto &[idx, label] : bra_fixups) {
            auto it = label_final.find(label);
            NVBIT_ASSERT(it != label_final.end(),
                         "undefined label id %d", label);
            int64_t off = (static_cast<int64_t>(it->second) -
                           static_cast<int64_t>(idx) - 1) *
                          static_cast<int64_t>(ib);
            code[idx].imm = off;
        }

        for (const Instruction &in : code) {
            if (!isa::encodable(family_, in)) {
                throw CompileError{
                    strfmt("%s: instruction not encodable on %s: %s",
                           fn_.name.c_str(),
                           isa::archFamilyName(family_),
                           in.toString().c_str()),
                    0};
            }
        }

        out_fn_.code = std::move(code);
        out_fn_.num_regs = isa::regsUsed(out_fn_.code);
    }

    // ===== State =========================================================

    const FuncDecl &fn_;
    const ModuleLayout &layout_;
    isa::ArchFamily family_;

    CompiledFunction out_fn_;
    std::vector<VRegInfo> vregs_;
    std::map<std::string, int> vreg_ids_;
    std::vector<VInstr> vinstrs_;
    std::map<std::string, int> label_ids_;
    std::set<std::string> labels_; ///< every label the body defines

    std::map<std::string, uint32_t> local_off_;
    uint32_t local_size_ = 0;
    std::map<std::string, uint32_t> shared_off_;
    std::map<std::string, uint32_t> param_off_;
    std::map<std::string, int> param_vreg_;

    int cur_line_ = 0;
    int cur_loc_file_ = -1;
    int cur_loc_line_ = 0;
};

} // namespace

CompiledFunction
compileFunction(const FuncDecl &fn, const ModuleLayout &layout,
                isa::ArchFamily family)
{
    return FuncCompiler(fn, layout, family).run();
}

} // namespace nvbit::ptx
