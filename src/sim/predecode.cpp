#include "sim/predecode.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nvbit::sim {

namespace {

/** "Compiled, nothing worthwhile here" trace-slot marker. */
const Trace *
noTrace()
{
    return reinterpret_cast<const Trace *>(uintptr_t{1});
}

} // namespace

CodeCache::CodeCache(const mem::DeviceMemory &mem, isa::ArchFamily fam)
    : mem_(mem), fam_(fam), ib_(isa::instrBytes(fam)),
      slots_((mem.size() + kPageBytes - 1) / kPageBytes)
{
    static_assert(kPageBytes % 16 == 0 && (kPageBytes & (kPageBytes - 1)) == 0,
                  "page size must be a power of two holding whole "
                  "instructions of either family");
}

PredecodedImage *
CodeCache::buildPage(mem::DevPtr base) const
{
    auto page = new PredecodedImage;
    page->base = base;
    page->entries.resize(kPageBytes / ib_);
    for (size_t i = 0; i < page->entries.size(); ++i) {
        PredecodedEntry &e = page->entries[i];
        mem::DevPtr pc = base + i * ib_;
        try {
            auto bytes = mem_.view(pc, ib_);
            e.status = isa::decode(fam_, bytes.data(), e.in)
                           ? PredecodeStatus::Valid
                           : PredecodeStatus::Illegal;
        } catch (const mem::DeviceMemory::MemFault &) {
            e.status = PredecodeStatus::Unmapped;
        }
    }
    return page;
}

const PredecodedImage *
CodeCache::acquire(mem::DevPtr pc)
{
    size_t slot = pc / kPageBytes;
    if (slot >= slots_.size())
        return nullptr;
    PredecodedImage *page = slots_[slot].load(std::memory_order_acquire);
    if (page)
        return page;
    std::lock_guard<std::mutex> lk(fill_mu_);
    page = slots_[slot].load(std::memory_order_relaxed);
    if (page)
        return page;
    page = buildPage(pageBase(pc));
    owned_[slot] = std::unique_ptr<PredecodedImage>(page);
    pages_built_.fetch_add(1, std::memory_order_relaxed);
    slots_[slot].store(page, std::memory_order_release);
    return page;
}

const Trace *
CodeCache::trace(const PredecodedImage &page, mem::DevPtr pc)
{
    const size_t idx = (pc - page.base) / ib_;
    PageTraces *pt = page.traces.load(std::memory_order_acquire);
    const Trace *tr =
        pt ? pt->slots[idx].load(std::memory_order_acquire) : nullptr;
    if (!tr) {
        std::lock_guard<std::mutex> lk(fill_mu_);
        pt = page.traces.load(std::memory_order_relaxed);
        if (!pt) {
            pt = new PageTraces(page.entries.size());
            page.traces.store(pt, std::memory_order_release);
        }
        tr = pt->slots[idx].load(std::memory_order_relaxed);
        if (!tr) {
            // Compiled under fill_mu_, which also guards the probe
            // registry: a probe change either retires this page after
            // the trace lands or is already visible to the compiler.
            std::unique_ptr<Trace> built =
                compileTrace(page, idx, ib_, probes_);
            tr = built ? built.get() : noTrace();
            if (built) {
                pt->owned.push_back(std::move(built));
                traces_built_.fetch_add(1, std::memory_order_relaxed);
            }
            pt->slots[idx].store(tr, std::memory_order_release);
        }
    }
    return tr == noTrace() ? nullptr : tr;
}

void
CodeCache::retireLocked(size_t slot)
{
    if (!slots_[slot].load(std::memory_order_relaxed))
        return;
    slots_[slot].store(nullptr, std::memory_order_release);
    auto it = owned_.find(slot);
    NVBIT_ASSERT(it != owned_.end(), "code cache slot %zu untracked", slot);
    retired_.push_back(std::move(it->second));
    owned_.erase(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void
CodeCache::retireTracedLocked(mem::DevPtr pc)
{
    const size_t slot = pc / kPageBytes;
    if (slot >= slots_.size())
        return;
    const PredecodedImage *page = slots_[slot].load(std::memory_order_relaxed);
    if (page && page->traces.load(std::memory_order_relaxed))
        retireLocked(slot);
}

void
CodeCache::invalidateRange(mem::DevPtr addr, size_t bytes)
{
    if (bytes == 0)
        return;
    size_t first = addr / kPageBytes;
    size_t last = (addr + bytes - 1) / kPageBytes;
    if (first >= slots_.size())
        return;
    last = std::min(last, slots_.size() - 1);
    std::lock_guard<std::mutex> lk(fill_mu_);
    for (size_t slot = first; slot <= last; ++slot)
        retireLocked(slot);
}

void
CodeCache::invalidateAll()
{
    invalidateRange(0, slots_.size() * kPageBytes);
}

void
CodeCache::prewarm(mem::DevPtr addr, size_t bytes)
{
    if (bytes == 0)
        return;
    for (mem::DevPtr p = pageBase(addr); p < addr + bytes; p += kPageBytes)
        acquire(p);
}

void
CodeCache::collectRetired()
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    retired_.clear();
}

void
CodeCache::registerProbe(const InlineProbe &probe)
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    probes_[probe.jmp_pc] = probe;
    retireTracedLocked(probe.jmp_pc);
}

void
CodeCache::clearProbesInRange(mem::DevPtr addr, size_t bytes)
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    auto lo = probes_.lower_bound(addr);
    auto hi = probes_.lower_bound(addr + bytes);
    for (auto it = lo; it != hi; ++it)
        retireTracedLocked(it->first);
    probes_.erase(lo, hi);
}

size_t
CodeCache::probeCount() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    return probes_.size();
}

size_t
CodeCache::residentPages() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    return owned_.size();
}

size_t
CodeCache::residentTraces() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    size_t n = 0;
    for (const auto &[slot, page] : owned_)
        if (const PageTraces *pt = page->traces.load(std::memory_order_relaxed))
            n += pt->owned.size();
    return n;
}

const Trace *
CodeCache::residentTrace(mem::DevPtr pc) const
{
    if ((pc & (ib_ - 1)) != 0 || pc / kPageBytes >= slots_.size())
        return nullptr;
    const PredecodedImage *page =
        slots_[pc / kPageBytes].load(std::memory_order_acquire);
    const PageTraces *pt =
        page ? page->traces.load(std::memory_order_acquire) : nullptr;
    if (!pt)
        return nullptr;
    const Trace *tr =
        pt->slots[(pc - page->base) / ib_].load(std::memory_order_acquire);
    return tr == noTrace() ? nullptr : tr;
}

} // namespace nvbit::sim
