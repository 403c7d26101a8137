#include "sim/trace_cache.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nvbit::sim {

TraceCache::TraceCache(const mem::DeviceMemory &mem, isa::ArchFamily fam)
    : compiler_(mem, fam), ib_(isa::instrBytes(fam)),
      pages_((mem.size() + kPageBytes - 1) / kPageBytes)
{}

const Trace *
TraceCache::acquire(mem::DevPtr pc)
{
    if ((pc & (ib_ - 1)) != 0)
        return nullptr;
    const size_t pidx = pc / kPageBytes;
    if (pidx >= pages_.size())
        return nullptr;

    Page *page = pages_[pidx].load(std::memory_order_acquire);
    if (!page) {
        std::lock_guard<std::mutex> lk(fill_mu_);
        page = pages_[pidx].load(std::memory_order_relaxed);
        if (!page) {
            auto fresh = std::make_unique<Page>(
                pc & ~static_cast<mem::DevPtr>(kPageBytes - 1),
                kPageBytes / ib_);
            page = fresh.get();
            owned_[pidx] = std::move(fresh);
            pages_[pidx].store(page, std::memory_order_release);
        }
    }

    const size_t sidx = (pc - page->base) / ib_;
    const Trace *tr = page->slots[sidx].load(std::memory_order_acquire);
    if (tr)
        return tr == noTrace() ? nullptr : tr;

    std::lock_guard<std::mutex> lk(fill_mu_);
    // The page may have been retired while we waited; the caller's
    // generation check will retry against the fresh page.
    if (pages_[pidx].load(std::memory_order_relaxed) != page)
        return nullptr;
    tr = page->slots[sidx].load(std::memory_order_relaxed);
    if (tr)
        return tr == noTrace() ? nullptr : tr;

    // Snapshot the probes covering this page so the compiler never
    // holds probe_mu_ (lock order is fill_mu_ -> probe_mu_ only).
    std::map<uint64_t, InlineProbe> snap;
    {
        std::lock_guard<std::mutex> pl(probe_mu_);
        auto lo = probes_.lower_bound(page->base);
        auto hi = probes_.lower_bound(page->base + kPageBytes);
        snap.insert(lo, hi);
    }
    auto lookup = [&snap](uint64_t p,
                          const isa::Instruction &in) -> const InlineProbe * {
        auto it = snap.find(p);
        if (it == snap.end())
            return nullptr;
        // Staleness guard: the callsite must still be the JMP that
        // targets this probe's trampoline (code swaps restore the
        // original bytes without unregistering).
        if (static_cast<uint64_t>(in.imm) * isa::kJmpScale !=
            it->second.tramp_target)
            return nullptr;
        return &it->second;
    };

    std::unique_ptr<Trace> built = compiler_.compile(pc, lookup);
    const Trace *result = built ? built.get() : noTrace();
    if (built) {
        page->owned.push_back(std::move(built));
        traces_built_.fetch_add(1, std::memory_order_relaxed);
    }
    page->slots[sidx].store(result, std::memory_order_release);
    return result == noTrace() ? nullptr : result;
}

void
TraceCache::invalidateRange(mem::DevPtr addr, size_t bytes)
{
    if (bytes == 0)
        return;
    size_t first = addr / kPageBytes;
    size_t last = (addr + bytes - 1) / kPageBytes;
    if (first >= pages_.size())
        return;
    last = std::min(last, pages_.size() - 1);
    bool dropped = false;
    {
        std::lock_guard<std::mutex> lk(fill_mu_);
        for (size_t pidx = first; pidx <= last; ++pidx) {
            if (!pages_[pidx].load(std::memory_order_relaxed))
                continue;
            pages_[pidx].store(nullptr, std::memory_order_release);
            auto it = owned_.find(pidx);
            NVBIT_ASSERT(it != owned_.end(),
                         "trace cache page %zu untracked", pidx);
            retired_.push_back(std::move(it->second));
            owned_.erase(it);
            invalidations_.fetch_add(1, std::memory_order_relaxed);
            dropped = true;
        }
    }
    if (dropped)
        gen_.fetch_add(1, std::memory_order_acq_rel);
}

void
TraceCache::invalidateAll()
{
    invalidateRange(0, pages_.size() * kPageBytes);
}

void
TraceCache::collectRetired()
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    retired_.clear();
}

void
TraceCache::registerProbe(const InlineProbe &probe)
{
    {
        std::lock_guard<std::mutex> pl(probe_mu_);
        probes_[probe.jmp_pc] = probe;
    }
    // Traces covering the callsite were compiled without the probe;
    // retire them so the next entry recompiles with it inlined.
    invalidateRange(probe.jmp_pc, ib_);
    gen_.fetch_add(1, std::memory_order_acq_rel);
}

void
TraceCache::clearProbesInRange(mem::DevPtr addr, size_t bytes)
{
    if (bytes == 0)
        return;
    bool removed = false;
    {
        std::lock_guard<std::mutex> pl(probe_mu_);
        auto lo = probes_.lower_bound(addr);
        auto hi = probes_.lower_bound(addr + bytes);
        removed = lo != hi;
        probes_.erase(lo, hi);
    }
    if (removed) {
        invalidateRange(addr, bytes);
        gen_.fetch_add(1, std::memory_order_acq_rel);
    }
}

size_t
TraceCache::probeCount() const
{
    std::lock_guard<std::mutex> pl(probe_mu_);
    return probes_.size();
}

const Trace *
TraceCache::resident(mem::DevPtr pc) const
{
    if ((pc & (ib_ - 1)) != 0 || pc / kPageBytes >= pages_.size())
        return nullptr;
    const Page *page = pages_[pc / kPageBytes].load(std::memory_order_acquire);
    if (!page)
        return nullptr;
    const Trace *tr =
        page->slots[(pc - page->base) / ib_].load(std::memory_order_acquire);
    return tr == noTrace() ? nullptr : tr;
}

size_t
TraceCache::residentTraces() const
{
    std::lock_guard<std::mutex> lk(fill_mu_);
    size_t n = 0;
    for (const auto &[idx, page] : owned_)
        n += page->owned.size();
    return n;
}

} // namespace nvbit::sim
