#include "sim/sm.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/logging.hpp"
#include "obs/sanitizer.hpp"
#include "obs/trace.hpp"

namespace nvbit::sim {

SmExecutor::SmExecutor(unsigned sm, const GpuConfig &cfg,
                       mem::DeviceMemory &mem, CacheHierarchy &caches,
                       CodeCache &code_cache, bool functional)
    : sm_(sm), cfg_(cfg), mem_(mem), caches_(caches), code_cache_(code_cache),
      ib_(isa::instrBytes(cfg.family)),
      ib_shift_(std::countr_zero(ib_)),
      functional_(functional),
      sample_period_(functional ? 0 : cfg.pc_sample_period),
      next_sample_(functional ? 0 : cfg.pc_sample_period)
{
    if (cfg.use_traces)
        strip_regs_.resize(StripRun::kMaxSlots * kWarpSize);
}

const isa::Instruction *
SmExecutor::byteDecode(uint64_t pc, isa::Instruction &scratch)
{
    try {
        auto bytes = mem_.view(pc, ib_);
        if (!isa::decode(cfg_.family, bytes.data(), scratch))
            throw DeviceException(TrapCode::IllegalInstruction,
                                  "illegal instruction encoding", pc);
    } catch (const mem::DeviceMemory::MemFault &) {
        throw DeviceException(TrapCode::InvalidPc,
                              "instruction fetch from unmapped memory",
                              pc);
    }
    return &scratch;
}

const isa::Instruction *
SmExecutor::fetch(uint64_t pc, isa::Instruction &scratch)
{
    if ((pc & (ib_ - 1)) != 0) {
        // Misaligned PC (e.g. a BRX through a garbage register): the
        // page index would be wrong, so fall back to byte decoding.
        ++shard_.decode_cache_misses;
        return byteDecode(pc, scratch);
    }
    const PredecodedImage *page = cached_page_;
    if (!page || pc < page->base ||
        pc >= page->base + CodeCache::kPageBytes) {
        ++shard_.decode_cache_misses;
        page = code_cache_.acquire(pc);
        cached_page_ = page;
        if (!page)
            throw DeviceException(TrapCode::InvalidPc,
                                  "instruction fetch from unmapped memory",
                                  pc);
    } else {
        ++shard_.decode_cache_hits;
    }
    const PredecodedEntry &e =
        page->entries[(pc - page->base) >> ib_shift_];
    switch (e.status) {
      case PredecodeStatus::Valid:
        return &e.in;
      case PredecodeStatus::Illegal:
        throw DeviceException(TrapCode::IllegalInstruction,
                              "illegal instruction encoding", pc);
      case PredecodeStatus::Unmapped:
        break;
    }
    throw DeviceException(TrapCode::InvalidPc,
                          "instruction fetch from unmapped memory", pc);
}

void
SmExecutor::accountGlobalAccess(const GlobalAccess &a)
{
    if (a.sectors.empty())
        return;
    if (functional_) {
        // Fast-forward fidelity: no events, no cache modelling, no L2
        // logging — but the divergence charge must still land, because
        // %clock reads the live cycle counter and skipping it would
        // perturb architectural state.  Count distinct lines only.
        const uint64_t line_mask =
            ~static_cast<uint64_t>(caches_.lineBytes() - 1);
        size_t nlines = 0;
        auto it = a.sectors.begin();
        while (it != a.sectors.end()) {
            const uint64_t line = *it & line_mask;
            do {
                ++it;
            } while (it != a.sectors.end() && (*it & line_mask) == line);
            ++nlines;
        }
        if (nlines > 1)
            chargeCycles(nlines - 1, obs::StallReason::MemDependency,
                         cur_pc_, cur_warp_);
        return;
    }
    using obs::HwEvent;
    const bool is_write = a.kind != GlobalAccess::Kind::Load;
    obs::EventSet &ev = shard_.events;
    ++shard_.global_mem_warp_instrs;
    shard_.unique_sectors_sum += a.sectors.size();
    switch (a.kind) {
      case GlobalAccess::Kind::Load:
        ev.add(HwEvent::GlobalLoadRequests, 1);
        ev.add(HwEvent::GlobalLoadSectors, a.sectors.size());
        ev.add(HwEvent::GlobalLoadBytes, a.bytes);
        break;
      case GlobalAccess::Kind::Store:
        ev.add(HwEvent::GlobalStoreRequests, 1);
        ev.add(HwEvent::GlobalStoreSectors, a.sectors.size());
        ev.add(HwEvent::GlobalStoreBytes, a.bytes);
        break;
      case GlobalAccess::Kind::Atomic:
        ev.add(HwEvent::GlobalAtomRequests, 1);
        ev.add(HwEvent::GlobalAtomSectors, a.sectors.size());
        break;
    }

    // The cache still moves whole lines: walk the sorted sector set
    // grouped by line.  This reproduces exactly the per-line access
    // order the line-granular accounting used, so L1 behaviour, the
    // unique-lines oracle and the divergence charge are unchanged.
    const uint64_t line_mask =
        ~static_cast<uint64_t>(caches_.lineBytes() - 1);
    size_t nlines = 0;
    auto it = a.sectors.begin();
    while (it != a.sectors.end()) {
        const uint64_t line = *it & line_mask;
        uint32_t secs = 0;
        do {
            ++secs;
            ++it;
        } while (it != a.sectors.end() && (*it & line_mask) == line);
        ++nlines;
        if (caches_.accessL1(sm_, line)) {
            ++shard_.l1_hits;
            ev.add(is_write ? HwEvent::L1SectorWriteHits
                            : HwEvent::L1SectorReadHits,
                   secs);
        } else {
            ++shard_.l1_misses;
            ev.add(is_write ? HwEvent::L1SectorWriteMisses
                            : HwEvent::L1SectorReadMisses,
                   secs);
            // L2 outcome and penalty are resolved in the post-join
            // replay so the shared L2 sees accesses in grid order.
            cur_l2_log_.push_back(
                {line, cur_pc_, cur_warp_, secs, is_write});
        }
    }
    shard_.unique_lines_sum += nlines;
    if (nlines > 1) {
        // Extra issue slots for divergence: memory-dependency stalls
        // attributed to the issuing access.
        chargeCycles(nlines - 1, obs::StallReason::MemDependency,
                     cur_pc_, cur_warp_);
    }
}

void
SmExecutor::accountSharedAccess(const SharedAccess &a)
{
    if (functional_)
        return; // shared accounting is events-only: pure observability
    using obs::HwEvent;
    obs::EventSet &ev = shard_.events;
    ev.add(a.write ? HwEvent::SharedStoreRequests
                   : HwEvent::SharedLoadRequests,
           1);
    ev.add(a.write ? HwEvent::SharedStoreTransactions
                   : HwEvent::SharedLoadTransactions,
           a.transactions);
    if (a.transactions > 1)
        ev.add(HwEvent::SharedBankConflicts, a.transactions - 1);
}

void
SmExecutor::atomicFence()
{
    if (head_)
        return;
    gate_->waitForPriorCtas(cur_cta_->cta_index);
    red_log_.applyTo(mem_);
    head_ = true;
}

ReductionLog *
SmExecutor::reductionLog()
{
    // Once every earlier CTA has retired, becoming the head never
    // blocks: commit what this CTA logged so far and apply directly
    // from here on.
    if (!head_ && gate_->isHead(cur_cta_->cta_index))
        atomicFence();
    return head_ ? nullptr : &red_log_;
}

void
SmExecutor::recordSample(uint64_t cycle, obs::StallReason r, uint64_t pc,
                         unsigned w)
{
    // The charged warp's record, with the return stack of its lowest
    // live lane (for flamegraph call-path folding).
    obs::PcSample s;
    s.cycle = cycle;
    s.pc = pc;
    s.sm = sm_;
    s.warp = w;
    s.cta_index = cur_cta_ ? cur_cta_->cta_index : 0;
    s.reason = r;
    if (cur_sched_ != nullptr) {
        const ThreadCtx *warp = cur_sched_->warp(w);
        for (unsigned l = 0; l < kWarpSize; ++l) {
            if (warp[l].state != ThreadCtx::St::Exited) {
                s.ret_stack.assign(warp[l].ret_stack,
                                   warp[l].ret_stack + warp[l].ret_depth);
                break;
            }
        }
    }
    cta_samples_.push_back(std::move(s));

    // Sibling records: what every *other* resident warp was doing on
    // this cycle, CUPTI-style (ready-but-not-issued vs barrier-parked).
    if (cur_sched_ == nullptr)
        return;
    for (unsigned w2 = 0; w2 < cur_sched_->numWarps(); ++w2) {
        if (w2 == w)
            continue;
        WarpScheduler::IssueSlot slot;
        obs::PcSample sib;
        switch (cur_sched_->pick(w2, slot)) {
          case WarpScheduler::Pick::AllExited:
            continue;
          case WarpScheduler::Pick::Issue:
            sib.reason = obs::StallReason::NotSelected;
            sib.pc = slot.pc;
            break;
          case WarpScheduler::Pick::Blocked:
            sib.reason = obs::StallReason::BarrierSync;
            sib.pc = slot.pc >= ib_ ? slot.pc - ib_ : 0;
            break;
        }
        sib.cycle = cycle;
        sib.sm = sm_;
        sib.warp = w2;
        sib.cta_index = cur_cta_ ? cur_cta_->cta_index : 0;
        cta_samples_.push_back(std::move(sib));
    }
}

void
SmExecutor::sampleTick(obs::StallReason r, uint64_t pc, unsigned w)
{
    const uint64_t now = cycle_total_ + cta_cycles_;
    while (next_sample_ <= now) {
        recordSample(next_sample_, r, pc, w);
        next_sample_ += sample_period_;
    }
}

void
SmExecutor::addReplayCycles(uint64_t c, uint64_t pc, uint32_t warp,
                            uint64_t cta_index)
{
    cycle_total_ += c;
    by_reason_[static_cast<size_t>(obs::StallReason::MemDependency)] += c;
    if (sample_period_ == 0)
        return;
    // Replay runs after the launch joined: cta_cycles_ still holds the
    // last committed CTA's value, so the crossing basis is the
    // committed total only.  No scheduler is alive — emit the charged
    // record alone (empty stack), straight into the committed stream.
    while (next_sample_ <= cycle_total_) {
        obs::PcSample s;
        s.cycle = next_sample_;
        s.pc = pc;
        s.sm = sm_;
        s.warp = warp;
        s.cta_index = cta_index;
        s.reason = obs::StallReason::MemDependency;
        samples_.push_back(std::move(s));
        next_sample_ += sample_period_;
    }
}

void
SmExecutor::watchdogTrap(uint64_t pc) const
{
    if (shard_.warp_instrs > cfg_.max_warp_instrs_per_launch)
        throw DeviceException(TrapCode::WatchdogTimeout,
                              "launch exceeded the warp-instruction watchdog",
                              pc);
    throw DeviceException(
        TrapCode::WatchdogTimeout,
        strfmt("launch exceeded the cycle watchdog (%llu cycles)",
               static_cast<unsigned long long>(cfg_.watchdog_cycles)),
        pc);
}

void
SmExecutor::annotateTrap(DeviceException &e, unsigned w,
                         const ThreadCtx *warp, uint32_t active_mask,
                         uint32_t exec_mask)
{
    e.warp_id = w;
    e.active_mask = exec_mask ? exec_mask : active_mask;
    if (e.active_mask && e.ret_stack.empty()) {
        const ThreadCtx &t = warp[std::countr_zero(e.active_mask)];
        e.ret_stack.assign(t.ret_stack, t.ret_stack + t.ret_depth);
    }
}

SmExecutor::StepResult
SmExecutor::stepWarp(WarpScheduler &sched, Interpreter &interp, unsigned w,
                     unsigned budget, unsigned &consumed)
{
    consumed = 1;
    WarpScheduler::IssueSlot slot;
    switch (sched.pick(w, slot)) {
      case WarpScheduler::Pick::AllExited:
        noteWarpReadiness(w, false);
        return StepResult::AllExited;
      case WarpScheduler::Pick::Blocked:
        noteWarpReadiness(w, false);
        // One barrier-wait cycle, attributed to the BAR the earliest
        // parked thread sits behind (slot.pc is post-advance).
        chargeCycles(1, obs::StallReason::BarrierSync,
                     slot.pc >= ib_ ? slot.pc - ib_ : 0, w);
        return StepResult::Blocked;
      case WarpScheduler::Pick::Issue:
        noteWarpReadiness(w, true);
        break;
    }
    const uint64_t minpc = slot.pc;
    const uint32_t active_mask = slot.active_mask;
    ThreadCtx *warp = sched.warp(w);
    uint32_t exec_mask = 0;

    try {
        isa::Instruction scratch;
        const isa::Instruction *in = fetch(minpc, scratch);
        // Trace engine: under the convergence guard, replay the
        // superblock compiled from the page just fetched from instead
        // of dispatching one instruction.  Requires budget for at
        // least two slots so traces always pay for themselves; a
        // misaligned pc was byte-decoded and has no page slot.
        if (cfg_.use_traces && slot.converged && budget > 1 &&
            (minpc & (ib_ - 1)) == 0) {
            if (const Trace *tr = code_cache_.trace(*cached_page_, minpc)) {
                consumed = runTrace(sched, interp, w, *tr, active_mask,
                                    budget, exec_mask);
                return StepResult::Progress;
            }
        }
        exec_mask = guardMask(warp, active_mask, *in);

        const uint64_t next_pc = minpc + ib_;
        // All active threads advance; control flow overrides below.
        sched.advance(w, active_mask, next_pc);

        // Read-after-write on the previous instruction's destination
        // costs one dependency bubble before this issue slot.
        const uint8_t last_dst = sched.lastDst(w);
        issueSlot(in->op, minpc, w,
                  last_dst != isa::kRegZ && in->readsGpr(last_dst),
                  active_mask, exec_mask);

        // Attribution context for MemModel callbacks fired inside
        // execute (divergence / miss logging).
        cur_pc_ = minpc;
        cur_warp_ = w;

        interp.execute(*in, warp, active_mask, exec_mask, minpc, next_pc);

        // Control flow costs one resolution bubble after executing.
        if (in->isControlFlow())
            chargeCycles(1, obs::StallReason::BranchResolve, minpc, w);
        sched.setLastDst(w, in->writesGpr() ? in->rd : isa::kRegZ);
    } catch (DeviceException &e) {
        annotateTrap(e, w, warp, active_mask, exec_mask);
        throw;
    }
    return StepResult::Progress;
}

void
SmExecutor::runCta(const LaunchParams &lp, const CtaWork &w,
                   AtomicGate &gate)
{
    runCtaFrom(lp, w, gate, nullptr);
}

void
SmExecutor::resumeCta(const LaunchParams &lp, const CtaWork &w,
                      AtomicGate &gate, const MidCtaImage &img)
{
    runCtaFrom(lp, w, gate, &img);
}

void
SmExecutor::runCtaFrom(const LaunchParams &lp, const CtaWork &w,
                       AtomicGate &gate, const MidCtaImage *resume)
{
    // CTA-residency timeline: one span per CTA on this SM's track.
    std::string span_name;
    if (obs::Tracer::instance().enabled())
        span_name = strfmt("cta %llu",
                           static_cast<unsigned long long>(w.cta_index));
    obs::TraceSpan span(obs::kDevicePid, static_cast<int>(sm_),
                        span_name, "sim.cta");

    WarpScheduler sched(lp);
    if (resume != nullptr) {
        // Rebuild the captured block: a scheduler freshly constructed
        // from the same LaunchParams plus the architectural image is
        // indistinguishable from the one that was interrupted.
        sched.restoreState(resume->sched);
        local_ = resume->local_mem;
        shared_ = resume->shared_mem;
        warp_eligible_ = resume->warp_eligible;
        eligible_warps_ = resume->eligible_warps;
        cta_cycles_ = resume->cta_cycles;
        cta_by_reason_ = resume->cta_by_reason;
        cta_samples_ = resume->cta_samples;
        saved_next_sample_ = resume->saved_next_sample;
        cur_l2_log_ = resume->cur_l2_log;
    } else {
        local_.assign(
            static_cast<size_t>(sched.numThreads()) * lp.local_bytes, 0);
        shared_.assign(lp.shared_bytes, 0);
        // Every resident warp starts issuable (fresh contexts, no
        // barriers), so the eligible-warps event begins at full
        // residency.
        warp_eligible_.assign(sched.numWarps(), 1);
        eligible_warps_ = sched.numWarps();
        cta_cycles_ = 0;
        cta_by_reason_ = {};
        cta_samples_.clear();
        saved_next_sample_ = next_sample_;
        cur_l2_log_.clear();
    }
    cur_sched_ = &sched;
    cur_cta_ = &w;
    gate_ = &gate;
    head_ = false;

    Interpreter interp(cfg_, mem_, lp, sm_, w.ctaid, local_, shared_,
                       cta_cycles_, *this);
    try {
        constexpr unsigned kQuantum = 128;
        for (uint64_t round = resume ? resume->round : 0;; ++round) {
            if (checkpoint_hook_ && round == checkpoint_round_) {
                // One-shot passive capture at a deterministic point:
                // top of a round, where no per-instruction transients
                // are live.
                CheckpointHook hook = std::move(checkpoint_hook_);
                checkpoint_hook_ = nullptr;
                hook(sched, round);
            }
            bool progressed = false;
            bool any_live = false;
            for (unsigned wi = 0; wi < sched.numWarps(); ++wi) {
                // Issue up to kQuantum slots per warp per round.  The
                // per-instruction path consumes one slot per step, so
                // with traces off this is the classic 128-step loop.
                unsigned budget = kQuantum;
                while (budget > 0) {
                    unsigned consumed = 1;
                    StepResult r =
                        stepWarp(sched, interp, wi, budget, consumed);
                    if (r == StepResult::Progress) {
                        progressed = true;
                        any_live = true;
                        budget -= std::min(consumed, budget);
                    } else {
                        if (r == StepResult::Blocked)
                            any_live = true;
                        break;
                    }
                }
            }
            if (!any_live)
                break;
            if (!progressed) {
                // Everyone alive is waiting at a barrier.  Threads
                // that exited early simply don't participate (real
                // hardware semantics), so the barrier releases — but
                // only if all waiters arrived at the *same* barrier.
                // Parked threads spanning distinct PCs mean divergent
                // `bar.sync` arrival (the classic conditional-
                // __syncthreads() bug): a synccheck-style deadlock.
                WarpScheduler::BarrierSnapshot snap =
                    sched.barrierSnapshot();
                if (snap.distinct_pcs > 1) {
                    // Synccheck records the finding first; the
                    // architectural BarrierDeadlock trap below is
                    // unchanged (the sanitizer is passive even when
                    // the program is about to die).
                    if ((cfg_.sancheck_mask &
                         obs::kSancheckSynccheck) != 0 &&
                        !functional_) {
                        obs::SanitizerFinding f;
                        f.check = obs::SanCheck::Synccheck;
                        f.severity =
                            obs::SanitizerFinding::Severity::Error;
                        f.pc = snap.min_pc >= ib_ ? snap.min_pc - ib_
                                                  : 0;
                        f.message = strfmt(
                            "barrier deadlock: %u threads parked at "
                            "%u distinct barriers (%u exited)",
                            snap.waiting, snap.distinct_pcs,
                            snap.exited);
                        f.ctaid[0] = w.ctaid[0];
                        f.ctaid[1] = w.ctaid[1];
                        f.ctaid[2] = w.ctaid[2];
                        f.cta_index = w.cta_index;
                        f.sm_id = sm_;
                        f.warp = snap.stuck_warps.empty()
                                     ? 0
                                     : snap.stuck_warps.front();
                        obs::Sanitizer::instance().record(
                            std::move(f));
                    }
                    // Waiting threads were advanced past the BAR
                    // before it executed; step back one instruction
                    // to report the barrier's own pc.
                    DeviceException e(
                        TrapCode::BarrierDeadlock,
                        strfmt("divergent barrier: %u threads stuck "
                               "at %u distinct barriers (%u threads "
                               "already exited)",
                               snap.waiting, snap.distinct_pcs,
                               snap.exited),
                        snap.min_pc >= ib_ ? snap.min_pc - ib_ : 0);
                    e.stuck_warps = std::move(snap.stuck_warps);
                    if (!e.stuck_warps.empty())
                        e.warp_id = e.stuck_warps.front();
                    throw e;
                }
                if (!sched.releaseBarrier())
                    throw DeviceException(TrapCode::BarrierDeadlock,
                                          "thread block deadlocked", 0);
                // The barrier closed a happens-before epoch: shared-
                // memory accesses before and after it are ordered.
                interp.onBarrierRelease();
            }
        }
    } catch (DeviceException &e) {
        // Second annotation layer: which thread block, on which SM.
        if (!e.has_context) {
            e.has_context = true;
            e.ctaid[0] = w.ctaid[0];
            e.ctaid[1] = w.ctaid[1];
            e.ctaid[2] = w.ctaid[2];
            e.cta_index = w.cta_index;
            e.sm_id = sm_;
        }
        // Trapped CTAs contribute no cycles (cta_cycles_ is not folded
        // into cycle_total_); discard their samples and rewind the
        // sampling counter so breakdown and stream stay consistent.
        cta_samples_.clear();
        next_sample_ = saved_next_sample_;
        cur_sched_ = nullptr;
        cur_cta_ = nullptr;
        gate_ = nullptr;
        throw;
    } catch (...) {
        cta_samples_.clear();
        next_sample_ = saved_next_sample_;
        cur_sched_ = nullptr;
        cur_cta_ = nullptr;
        gate_ = nullptr;
        throw;
    }

    cycle_total_ += cta_cycles_;
    for (size_t i = 0; i < by_reason_.size(); ++i)
        by_reason_[i] += cta_by_reason_[i];
    // Occupancy events commit with the CTA (trapped CTAs publish
    // nothing, mirroring the cycle handling above).
    if (!functional_) {
        shard_.events.add(obs::HwEvent::WarpsLaunched, sched.numWarps());
        shard_.events.add(obs::HwEvent::WarpCyclesActive,
                          static_cast<uint64_t>(sched.numWarps()) *
                              cta_cycles_);
    }
    if (!cta_samples_.empty()) {
        samples_.insert(samples_.end(),
                        std::make_move_iterator(cta_samples_.begin()),
                        std::make_move_iterator(cta_samples_.end()));
        cta_samples_.clear();
    }
    ++shard_.ctas;
    l2_logs_.emplace_back(w.cta_index, std::move(cur_l2_log_));
    cur_l2_log_ = {};
    cur_sched_ = nullptr;
    cur_cta_ = nullptr;
    gate_ = nullptr;
}

SmExecutor::StateImage
SmExecutor::snapshotCommitted() const
{
    StateImage img;
    img.shard = shard_;
    img.cycle_total = cycle_total_;
    img.by_reason = by_reason_;
    img.next_sample = next_sample_;
    img.samples = samples_;
    img.l2_logs = l2_logs_;
    return img;
}

void
SmExecutor::restoreCommitted(const StateImage &img)
{
    shard_ = img.shard;
    cycle_total_ = img.cycle_total;
    by_reason_ = img.by_reason;
    next_sample_ = img.next_sample;
    samples_ = img.samples;
    l2_logs_ = img.l2_logs;
}

SmExecutor::MidCtaImage
SmExecutor::snapshotMidCta(const WarpScheduler &sched,
                           uint64_t round) const
{
    MidCtaImage img;
    img.round = round;
    img.sched = sched.snapshotState();
    img.local_mem = local_;
    img.shared_mem = shared_;
    img.cta_cycles = cta_cycles_;
    img.cta_by_reason = cta_by_reason_;
    img.cta_samples = cta_samples_;
    img.warp_eligible = warp_eligible_;
    img.eligible_warps = eligible_warps_;
    img.cur_l2_log = cur_l2_log_;
    img.saved_next_sample = saved_next_sample_;
    return img;
}

void
SmExecutor::runAssigned(const LaunchParams &lp,
                        const std::vector<CtaWork> &ctas,
                        AtomicGate &gate,
                        std::atomic<uint64_t> &abort_before) noexcept
{
    for (const CtaWork &w : ctas) {
        if (w.cta_index < abort_before.load(std::memory_order_acquire)) {
            try {
                runCta(lp, w, gate);
                gate.markDone(w.cta_index, red_log_);
                continue;
            } catch (const DeviceException &e) {
                if (!trap_ || w.cta_index < trap_->cta_index)
                    trap_ = CapturedTrap{e, nullptr, w.cta_index};
            } catch (...) {
                if (!trap_ || w.cta_index < trap_->cta_index)
                    trap_ = CapturedTrap{DeviceException{},
                                         std::current_exception(),
                                         w.cta_index};
            }
            // Lower abort_before to this CTA: later blocks stop, but
            // earlier ones still run, so the globally first trap in
            // grid order is always reached (matches the serial path).
            uint64_t cur = abort_before.load(std::memory_order_acquire);
            while (w.cta_index < cur &&
                   !abort_before.compare_exchange_weak(
                       cur, w.cta_index, std::memory_order_acq_rel))
                ;
        }
        // Aborted or trapped: release gate waiters on this CTA and
        // commit the reductions a trapped CTA issued before its fault,
        // as the serial path does.
        gate.markDone(w.cta_index, red_log_);
    }
}

} // namespace nvbit::sim
