/**
 * @file
 * Per-lane operation semantics, written once for every engine.
 *
 * The 32-bit ALU ops are one table: LaneOp names each op, laneShape()
 * maps an instruction to its op, its `aux` and its sources (each a
 * register or a constant), and NVBIT_LANE_OPS gives each op's body
 * over scalar lane operands.  The interpreter (interpreter.cpp) runs a
 * body over the exec lanes of a ThreadCtx warp; a trace strip run
 * (trace_exec.cpp) runs it over structure-of-arrays lanes.  Neither
 * restates an op, so the engines compute bit-identical results by
 * construction.  The remaining helpers (conversions, compares, MUFU,
 * ATOM) are shared the same way, with the grid-order reduction log
 * (reduction_log.hpp) too.
 */
#ifndef NVBIT_SIM_LANE_OPS_HPP
#define NVBIT_SIM_LANE_OPS_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "isa/instruction.hpp"
#include "isa/opcodes.hpp"

namespace nvbit::sim {

inline float
asF32(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

inline uint32_t
asBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, sizeof(b));
    return b;
}

/** The one NaN an f32 ALU op returns. */
constexpr uint32_t kCanonicalNaN = 0x7FFFFFFFu;

/**
 * Bits of an f32 ALU result.  Which NaN operand's payload the host FPU
 * passes on depends on the operand order the compiler emits, which can
 * differ between an op's scalar loop (interpreter) and vector loop
 * (strip run), so every NaN result is the canonical NaN.
 */
inline uint32_t
f32Result(float f)
{
    return std::isnan(f) ? kCanonicalNaN : asBits(f);
}

/**
 * FMNMX on f32 bits: a NaN operand loses to a number, two NaNs give
 * the canonical NaN, and -0 orders below +0.  Written out because
 * std::fmin/fmax leave the sign of a zero result open, and so to how
 * each loop is compiled.
 */
inline uint32_t
fmnmxApply(uint32_t a, uint32_t b, bool want_max)
{
    const float x = asF32(a), y = asF32(b);
    if (std::isnan(x))
        return std::isnan(y) ? kCanonicalNaN : b;
    if (std::isnan(y))
        return a;
    if (x == y)
        return want_max ? (a & b) : (a | b); // +0 and -0 differ in sign
    return (x < y) != want_max ? a : b;
}

/** f32 -> integer conversion with defined saturation semantics. */
inline int64_t
f2iClamp(float f, bool is_signed)
{
    if (std::isnan(f))
        return 0;
    if (is_signed) {
        if (f >= 2147483647.0f)
            return 2147483647;
        if (f <= -2147483648.0f)
            return -2147483648ll;
        return static_cast<int64_t>(f);
    }
    if (f >= 4294967295.0f)
        return 4294967295ll;
    if (f <= 0.0f)
        return 0;
    return static_cast<int64_t>(f);
}

/** SETP's comparison: unsigned, signed or float by @p T (a float
 *  NaN compares false except under NE). */
template <typename T>
inline bool
cmpApply(isa::CmpOp c, T a, T b)
{
    switch (c) {
      case isa::CmpOp::LT: return a < b;
      case isa::CmpOp::EQ: return a == b;
      case isa::CmpOp::LE: return a <= b;
      case isa::CmpOp::GT: return a > b;
      case isa::CmpOp::NE: return a != b;
      case isa::CmpOp::GE: return a >= b;
    }
    return false;
}

/** Predicate @p idx of a lane's predicate byte (PT reads true),
 *  negated when @p neg. */
inline bool
predBit(uint8_t preds, uint8_t idx, bool neg)
{
    const bool v = idx == isa::kPredT || ((preds >> idx) & 1) != 0;
    return v != neg;
}

/** Write predicate @p idx of a lane's predicate byte; a write to PT is
 *  discarded. */
inline void
writePredBit(uint8_t &preds, uint8_t idx, bool v)
{
    const uint8_t m = idx < isa::kPredT ? static_cast<uint8_t>(1u << idx)
                                        : uint8_t{0};
    preds = v ? static_cast<uint8_t>(preds | m)
              : static_cast<uint8_t>(preds & ~m);
}

inline float
mufuApply(isa::MufuOp op, float a)
{
    switch (op) {
      case isa::MufuOp::RCP: return 1.0f / a;
      case isa::MufuOp::SQRT: return std::sqrt(a);
      case isa::MufuOp::RSQ: return 1.0f / std::sqrt(a);
      case isa::MufuOp::EX2: return std::exp2(a);
      case isa::MufuOp::LG2: return std::log2(a);
      case isa::MufuOp::SIN: return std::sin(a);
      case isa::MufuOp::COS: return std::cos(a);
    }
    return 0.0f;
}

/** ATOM's new memory value from the old one and operands @p b/@p c. */
inline uint64_t
atomApply(isa::AtomOp op, isa::DType dt, uint64_t old_v, uint64_t b,
          uint64_t c)
{
    using isa::AtomOp;
    using isa::DType;
    switch (op) {
      case AtomOp::ADD:
        if (dt == DType::F32)
            return asBits(asF32(static_cast<uint32_t>(old_v)) +
                          asF32(static_cast<uint32_t>(b)));
        if (dt == DType::U64)
            return old_v + b;
        return static_cast<uint32_t>(old_v) + static_cast<uint32_t>(b);
      case AtomOp::MIN:
        if (dt == DType::S32)
            return static_cast<uint32_t>(
                std::min(static_cast<int32_t>(old_v),
                         static_cast<int32_t>(b)));
        if (dt == DType::F32)
            return asBits(std::min(asF32(static_cast<uint32_t>(old_v)),
                                   asF32(static_cast<uint32_t>(b))));
        if (dt == DType::U64)
            return std::min(old_v, b);
        return std::min(static_cast<uint32_t>(old_v),
                        static_cast<uint32_t>(b));
      case AtomOp::MAX:
        if (dt == DType::S32)
            return static_cast<uint32_t>(
                std::max(static_cast<int32_t>(old_v),
                         static_cast<int32_t>(b)));
        if (dt == DType::F32)
            return asBits(std::max(asF32(static_cast<uint32_t>(old_v)),
                                   asF32(static_cast<uint32_t>(b))));
        if (dt == DType::U64)
            return std::max(old_v, b);
        return std::max(static_cast<uint32_t>(old_v),
                        static_cast<uint32_t>(b));
      case AtomOp::EXCH:
        return b;
      case AtomOp::CAS:
        return old_v == b ? c : old_v;
      case AtomOp::AND:
        return old_v & b;
      case AtomOp::OR:
        return old_v | b;
      case AtomOp::XOR:
        return old_v ^ b;
    }
    return old_v;
}

// --- The 32-bit ALU op table ---------------------------------------------

/**
 * One entry per op: X(name, body).  A body is the op's work for one
 * lane, over names its expansion site binds:
 *  - `a`, `b`, `c`: the lane's source values (uint32_t);
 *  - `d`: the lane's result (uint32_t lvalue; written back to the
 *    op's destination register, RZ discarding it);
 *  - `p`: the lane's predicate byte (uint8_t lvalue, P0..P6 in bits
 *    0..6);
 *  - `dp`: the destination predicate index of the SETP ops (PT: the
 *    write is discarded);
 *  - `aux`: the op's build-time operand (want-max flag, MufuOp, CmpOp,
 *    or SEL's predicate index | negate << 3).
 */
#define NVBIT_LANE_OPS(X)                                                  \
    X(Mov, d = a)                                                          \
    X(IAdd, d = a + b)                                                     \
    X(ISub, d = a - b)                                                     \
    X(IMul, d = a * b)                                                     \
    X(IMad, d = a * b + c)                                                 \
    X(And, d = a & b)                                                      \
    X(Or, d = a | b)                                                       \
    X(Xor, d = a ^ b)                                                      \
    X(Not, d = ~a)                                                         \
    X(Shl, d = a << (b & 31))                                              \
    X(ShrU, d = a >> (b & 31))                                             \
    X(ShrS,                                                                \
      d = static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31)))      \
    X(MnmxU, d = aux ? std::max(a, b) : std::min(a, b))                    \
    X(MnmxS,                                                               \
      d = static_cast<uint32_t>(                                           \
          aux ? std::max(static_cast<int32_t>(a), static_cast<int32_t>(b)) \
              : std::min(static_cast<int32_t>(a),                          \
                         static_cast<int32_t>(b))))                        \
    X(Popc, d = static_cast<uint32_t>(std::popcount(a)))                   \
    X(FAdd, d = f32Result(asF32(a) + asF32(b)))                            \
    X(FMul, d = f32Result(asF32(a) * asF32(b)))                            \
    X(FFma, d = f32Result(std::fma(asF32(a), asF32(b), asF32(c))))         \
    X(FMnmx, d = fmnmxApply(a, b, aux != 0))                               \
    X(Mufu,                                                                \
      d = asBits(mufuApply(static_cast<isa::MufuOp>(aux), asF32(a))))      \
    X(I2FU, d = asBits(static_cast<float>(a)))                             \
    X(I2FS, d = asBits(static_cast<float>(static_cast<int32_t>(a))))       \
    X(F2IU, d = static_cast<uint32_t>(f2iClamp(asF32(a), false)))          \
    X(F2IS, d = static_cast<uint32_t>(f2iClamp(asF32(a), true)))           \
    X(ISetpU,                                                              \
      writePredBit(p, dp, cmpApply(static_cast<isa::CmpOp>(aux), a, b)))   \
    X(ISetpS,                                                              \
      writePredBit(p, dp,                                                  \
                   cmpApply(static_cast<isa::CmpOp>(aux),                  \
                            static_cast<int32_t>(a),                       \
                            static_cast<int32_t>(b))))                     \
    X(FSetp,                                                               \
      writePredBit(p, dp,                                                  \
                   cmpApply(static_cast<isa::CmpOp>(aux), asF32(a),        \
                            asF32(b))))                                    \
    X(Sel, d = predBit(p, aux & 0x7u, (aux & 0x8u) != 0) ? a : b)          \
    X(P2R, d = p)                                                          \
    X(R2P, p = static_cast<uint8_t>(a & 0x7Fu))

/** The table's ops, in NVBIT_LANE_OPS order. */
enum class LaneOp : uint8_t {
#define NVBIT_LANE_OP_NAME(name, body) name,
    NVBIT_LANE_OPS(NVBIT_LANE_OP_NAME)
#undef NVBIT_LANE_OP_NAME
    NumOps
};

/** True for the ops whose body reads or writes the predicate byte. */
constexpr bool
laneOpUsesPreds(LaneOp op)
{
    return op == LaneOp::ISetpU || op == LaneOp::ISetpS ||
           op == LaneOp::FSetp || op == LaneOp::Sel || op == LaneOp::P2R ||
           op == LaneOp::R2P;
}

/** One source of a table op: a register, or a constant (immediates,
 *  LUI's shifted immediate, RZ and unused sources, which read 0). */
struct LaneSrc {
    bool is_const = true;
    uint8_t reg = isa::kRegZ;
    uint32_t value = 0;
};

/** An instruction as a table op. */
struct LaneShape {
    LaneOp op = LaneOp::Mov;
    uint8_t aux = 0;
    uint8_t rd = isa::kRegZ;  ///< register written (RZ: none)
    uint8_t pd = isa::kPredT; ///< predicate written by the SETP ops
    LaneSrc a, b, c;
};

/**
 * Map @p in to its table op, aux and sources.  @return false for the
 * forms the table does not hold: everything but the 26 ALU opcodes
 * below, their 64-bit forms, and an S32 ISETP whose immediate does not
 * fit in 32 bits.  The guard predicate is the caller's business.
 */
inline bool
laneShape(const isa::Instruction &in, LaneShape &s)
{
    using isa::DType;
    using isa::Opcode;
    auto reg = [](uint8_t r) {
        LaneSrc o;
        o.is_const = r == isa::kRegZ;
        o.reg = r;
        return o;
    };
    auto imm = [](uint32_t v) {
        LaneSrc o;
        o.value = v;
        return o;
    };
    // The immediate or, without kModImmSrc2, register @p r.
    auto immOr = [&](uint8_t r) {
        return (in.mod & isa::kModImmSrc2)
                   ? imm(static_cast<uint32_t>(in.imm))
                   : reg(r);
    };
    const DType dt = isa::modGetDType(in.mod);
    s = LaneShape{};
    s.rd = in.rd;
    switch (in.op) {
      case Opcode::MOV: // Alu1 form: the register source is ra
        s.op = LaneOp::Mov;
        s.a = immOr(in.ra);
        return dt != DType::U64;
      case Opcode::LUI:
        s.op = LaneOp::Mov;
        s.a = imm(static_cast<uint32_t>(in.imm) << 16);
        return true;
      case Opcode::SEL:
        s.op = LaneOp::Sel;
        s.aux = static_cast<uint8_t>(
            isa::modGetSelPred(in.mod) |
            (isa::modGetSelPredNeg(in.mod) ? 0x8u : 0u));
        s.a = reg(in.ra);
        s.b = reg(in.rb);
        return true;
      case Opcode::SHL:
      case Opcode::SHR:
        s.op = in.op == Opcode::SHL ? LaneOp::Shl
               : dt == DType::S32   ? LaneOp::ShrS
                                    : LaneOp::ShrU;
        s.a = reg(in.ra);
        s.b = immOr(in.rb);
        return dt != DType::U64;
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
        s.op = in.op == Opcode::AND  ? LaneOp::And
               : in.op == Opcode::OR ? LaneOp::Or
                                     : LaneOp::Xor;
        s.a = reg(in.ra);
        s.b = immOr(in.rb);
        return true;
      case Opcode::NOT:
        s.op = LaneOp::Not;
        s.a = reg(in.ra);
        return true;
      case Opcode::IADD:
      case Opcode::ISUB:
      case Opcode::IMUL:
        s.op = in.op == Opcode::IADD   ? LaneOp::IAdd
               : in.op == Opcode::ISUB ? LaneOp::ISub
                                       : LaneOp::IMul;
        s.a = reg(in.ra);
        s.b = immOr(in.rb);
        return dt != DType::U64;
      case Opcode::IMAD:
        s.op = LaneOp::IMad;
        s.a = reg(in.ra);
        s.b = reg(in.rb);
        s.c = reg(in.rc);
        return dt != DType::U64;
      case Opcode::IMNMX:
        s.op = dt == DType::S32 ? LaneOp::MnmxS : LaneOp::MnmxU;
        s.aux = (in.mod & isa::kModMnmxMax) ? 1 : 0;
        s.a = reg(in.ra);
        s.b = immOr(in.rb);
        return true;
      case Opcode::POPC:
        s.op = LaneOp::Popc;
        s.a = reg(in.ra);
        return true;
      case Opcode::FADD:
      case Opcode::FMUL:
        s.op = in.op == Opcode::FADD ? LaneOp::FAdd : LaneOp::FMul;
        s.a = reg(in.ra);
        s.b = immOr(in.rb);
        return true;
      case Opcode::FFMA:
        s.op = LaneOp::FFma;
        s.a = reg(in.ra);
        s.b = reg(in.rb);
        s.c = reg(in.rc);
        return true;
      case Opcode::FMNMX:
        s.op = LaneOp::FMnmx;
        s.aux = (in.mod & isa::kModMnmxMax) ? 1 : 0;
        s.a = reg(in.ra);
        s.b = immOr(in.rb);
        return true;
      case Opcode::MUFU:
        s.op = LaneOp::Mufu;
        s.aux = static_cast<uint8_t>(isa::modGetMufu(in.mod));
        s.a = reg(in.ra);
        return true;
      case Opcode::I2F:
        s.op = dt == DType::S32 ? LaneOp::I2FS : LaneOp::I2FU;
        s.a = reg(in.ra);
        return true;
      case Opcode::F2I:
        s.op = dt == DType::S32 ? LaneOp::F2IS : LaneOp::F2IU;
        s.a = reg(in.ra);
        return true;
      case Opcode::ISETP:
      case Opcode::FSETP: {
        const bool imm_setp = (in.mod & isa::kModSetpImm) != 0;
        const DType sdt = isa::modGetSetpDType(in.mod);
        s.rd = isa::kRegZ;
        s.pd = in.rd & 0x7u;
        s.aux = static_cast<uint8_t>(isa::modGetCmp(in.mod));
        s.a = reg(in.ra);
        s.b = reg(in.rb);
        if (in.op == Opcode::FSETP) {
            s.op = LaneOp::FSetp;
            if (imm_setp)
                s.b = imm(asBits(static_cast<float>(in.imm)));
            return true;
        }
        s.op = sdt == DType::S32 ? LaneOp::ISetpS : LaneOp::ISetpU;
        if (imm_setp)
            s.b = imm(static_cast<uint32_t>(in.imm));
        // A signed compare takes the whole immediate, which a 32-bit
        // constant holds only when it fits.
        return sdt != DType::U64 &&
               !(imm_setp && sdt == DType::S32 &&
                 in.imm != static_cast<int32_t>(in.imm));
      }
      case Opcode::P2R:
        s.op = LaneOp::P2R;
        return true;
      case Opcode::R2P:
        s.op = LaneOp::R2P;
        s.rd = isa::kRegZ;
        s.a = reg(in.ra);
        return true;
      default:
        return false;
    }
}

} // namespace nvbit::sim

#endif // NVBIT_SIM_LANE_OPS_HPP
