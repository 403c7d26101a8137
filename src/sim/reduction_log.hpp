/**
 * @file
 * Grid-order reductions: atomics whose old value nobody reads.
 *
 * An ATOM with an RZ destination and an associative integer op (SASS
 * `RED`) is a *reduction*.  A thread block that is not yet the commit
 * head — some block with a smaller grid index is still running —
 * records its reductions in a per-CTA ReductionLog instead of waiting
 * on the AtomicGate, and the gate applies the logs in grid order as
 * its low-water mark advances.  Memory, returning-atomic values and
 * tool counters therefore equal a serial run's (docs/
 * execution_pipeline.md, "Threading model and determinism").
 */
#ifndef NVBIT_SIM_REDUCTION_LOG_HPP
#define NVBIT_SIM_REDUCTION_LOG_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/instruction.hpp"
#include "mem/device_memory.hpp"
#include "sim/lane_ops.hpp"

namespace nvbit::sim {

/**
 * True for an ATOM that may commit late: no destination register, an
 * integer type and an op whose repeats fold exactly.  F32 add (not
 * associative), EXCH, CAS and every returning ATOM keep the gate.
 */
inline bool
isReduction(const isa::Instruction &in)
{
    if (in.op != isa::Opcode::ATOM || in.rd != isa::kRegZ)
        return false;
    if (isa::modGetAtomDType(in.mod) == isa::DType::F32)
        return false;
    const isa::AtomOp op = isa::modGetAtomOp(in.mod);
    return op != isa::AtomOp::EXCH && op != isa::AtomOp::CAS;
}

/** One pending reduction: @p op of @p value into the naturally
 *  aligned 4- or 8-byte word at @p addr. */
struct Reduction {
    uint64_t addr = 0;
    uint64_t value = 0;
    isa::AtomOp op = isa::AtomOp::ADD;
    isa::DType dt = isa::DType::U64;
};

/** Read-modify-write one reduction into @p mem.  Bounds and alignment
 *  were checked when the reduction issued, so this cannot fault. */
void applyReduction(mem::DeviceMemory &mem, const Reduction &r);

/**
 * One thread block's uncommitted reductions, in issue order.  A
 * reduction with the same (address, op, type) as the newest entry on
 * its 8-byte word folds into that entry; every qualifying op is
 * associative, so applying the folded log gives exactly the result of
 * applying each reduction in turn.
 */
class ReductionLog
{
  public:
    bool empty() const { return entries_.empty(); }

    void
    add(uint64_t addr, isa::AtomOp op, isa::DType dt, uint64_t v)
    {
        // Fast path: a warp's lanes, or one probe's repeats, hitting
        // the newest entry.
        if (!entries_.empty()) {
            Reduction &b = entries_.back();
            if (b.addr == addr && b.op == op && b.dt == dt) {
                b.value = atomApply(op, dt, b.value, v, 0);
                return;
            }
        }
        addSlow(addr, op, dt, v);
    }

    /** True if [addr, addr + bytes) shares an 8-byte word with a
     *  pending entry. */
    bool overlaps(uint64_t addr, unsigned bytes) const;

    /** Apply every entry to @p mem in issue order, then clear. */
    void applyTo(mem::DeviceMemory &mem);

  private:
    void addSlow(uint64_t addr, isa::AtomOp op, isa::DType dt,
                 uint64_t v);

    std::vector<Reduction> entries_;
    /** 8-byte word -> index of the newest entry on it. */
    std::unordered_map<uint64_t, uint32_t> newest_;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_REDUCTION_LOG_HPP
