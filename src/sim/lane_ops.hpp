/**
 * @file
 * Per-lane operation semantics shared by the interpreter switch
 * (interpreter.cpp) and the trace engine's strip handlers
 * (trace_exec.cpp).  Both include this one definition, so the two
 * engines compute bit-identical results by construction.
 */
#ifndef NVBIT_SIM_LANE_OPS_HPP
#define NVBIT_SIM_LANE_OPS_HPP

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

} // namespace nvbit::sim

#endif // NVBIT_SIM_LANE_OPS_HPP
