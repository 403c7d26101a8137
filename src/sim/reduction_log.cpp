#include "sim/reduction_log.hpp"

namespace nvbit::sim {

void
applyReduction(mem::DeviceMemory &mem, const Reduction &r)
{
    if (r.dt == isa::DType::U64) {
        mem.write64(r.addr,
                    atomApply(r.op, r.dt, mem.read64(r.addr), r.value, 0));
    } else {
        mem.write32(r.addr, static_cast<uint32_t>(atomApply(
                                r.op, r.dt, mem.read32(r.addr), r.value,
                                0)));
    }
}

void
ReductionLog::addSlow(uint64_t addr, isa::AtomOp op, isa::DType dt,
                      uint64_t v)
{
    auto [it, fresh] = newest_.try_emplace(
        addr >> 3, static_cast<uint32_t>(entries_.size()));
    if (!fresh) {
        Reduction &r = entries_[it->second];
        if (r.addr == addr && r.op == op && r.dt == dt) {
            r.value = atomApply(op, dt, r.value, v, 0);
            return;
        }
        // Another op or width on this word: order matters from here.
        it->second = static_cast<uint32_t>(entries_.size());
    }
    entries_.push_back({addr, v, op, dt});
}

bool
ReductionLog::overlaps(uint64_t addr, unsigned bytes) const
{
    for (uint64_t w = addr >> 3; w <= (addr + bytes - 1) >> 3; ++w)
        if (newest_.count(w) != 0)
            return true;
    return false;
}

void
ReductionLog::applyTo(mem::DeviceMemory &mem)
{
    for (const Reduction &r : entries_)
        applyReduction(mem, r);
    entries_.clear();
    newest_.clear();
}

} // namespace nvbit::sim
