/**
 * @file
 * Per-lane operation semantics shared by the interpreter switch
 * (interpreter.cpp), the trace engine's strip handlers
 * (trace_exec.cpp) and the grid-order reduction log
 * (reduction_log.hpp).  All include this one definition, so the
 * engines compute bit-identical results by construction.
 */
#ifndef NVBIT_SIM_LANE_OPS_HPP
#define NVBIT_SIM_LANE_OPS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

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

inline bool
cmpApply(isa::CmpOp c, uint64_t a, uint64_t b)
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

inline bool
cmpApplySigned(isa::CmpOp c, int64_t a, int64_t b)
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

/** FSETP compares in float (NaN semantics differ from integer casts). */
inline bool
fcmpApply(isa::CmpOp c, float a, float b)
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

} // namespace nvbit::sim

#endif // NVBIT_SIM_LANE_OPS_HPP
