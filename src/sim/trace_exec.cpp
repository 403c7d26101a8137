/**
 * @file
 * Trace execution: threaded-code replay of compiled superblocks.
 *
 * The replay contract is bit-identity with the per-instruction engine
 * on uninstrumented code: results, LaunchStats, cycles_by_reason, the
 * PC-sample stream and EventSet counters are all identical, because
 * every issue slot is charged and counted by SmExecutor::issueSlot,
 * the member stepWarp issues through, and every strip op runs the
 * interpreter's own per-lane body (lane_ops.hpp).  What the trace
 * engine elides is re-derivation work that has no observable effect:
 * per-instruction fetch (the head is fetched for real, the rest tick
 * the decode counters the way a same-page fetch would), guard
 * evaluation for always-executing instructions, per-slot PC advance
 * (deferred — intermediate advances overwrite the same lanes of a
 * converged warp and nothing reads thread PCs mid-trace), and the
 * per-instruction operand-shape analysis for strip runs.
 *
 * Inline probes intentionally relax the stats contract: an
 * instrumented callsite costs two issue slots (the patched JMP plus
 * the displaced original) instead of the dozens the save/marshal/call/
 * restore trampoline would execute — that elision is the paper's
 * Figure 5/8 speedup.  Tool-visible counters stay exactly equal to the
 * trampoline path because the probe body reproduces the trampoline's
 * ballot/popc/atomic-add arithmetic, and its counter updates are u64
 * ADD reductions committed in grid order on the same path as a `RED`
 * (applied directly by the commit head, logged by any other CTA).
 */
#include "sim/sm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/lane_ops.hpp"

namespace nvbit::sim {

namespace {

/**
 * Execute [o, end) strip ops over the SoA strips @p S: each op runs its
 * NVBIT_LANE_OPS body (lane_ops.hpp) over all 32 lanes.  All lanes run
 * unconditionally: the trace entry guard makes every non-exited lane
 * active, and exited lanes' registers are dead (never gathered into
 * anything observable again), so computing garbage for them is free and
 * keeps the lane loops branchless.  Dispatch is computed-goto threaded
 * code: each op's loop jumps straight to the next op's.
 */
void
execStripOps(const StripOp *o, const StripOp *end, uint32_t *S,
             uint8_t *preds)
{
    if (o == end)
        return;
    constexpr size_t kLanes = kWarpSize;
#define NVBIT_H_ADDR(name, body) &&h_##name,
    static const void *const kDispatch[] = {NVBIT_LANE_OPS(NVBIT_H_ADDR)};
#undef NVBIT_H_ADDR
    goto *kDispatch[static_cast<size_t>(o->h)];
#define NVBIT_H(name, body)                                                \
    h_##name : {                                                           \
        uint32_t *D = S + o->d * kLanes;                                   \
        const uint32_t *A = S + o->a * kLanes;                             \
        const uint32_t *B = S + o->b * kLanes;                             \
        const uint32_t *C = S + o->c * kLanes;                             \
        [[maybe_unused]] const uint8_t aux = o->aux, dp = o->pd;           \
        for (unsigned l = 0; l < kLanes; ++l) {                            \
            [[maybe_unused]] const uint32_t a = A[l], b = B[l], c = C[l];  \
            [[maybe_unused]] uint32_t &d = D[l];                           \
            [[maybe_unused]] uint8_t &p = preds[l];                        \
            body;                                                          \
        }                                                                  \
    }                                                                      \
    if (++o == end)                                                        \
        return;                                                            \
    goto *kDispatch[static_cast<size_t>(o->h)];
    NVBIT_LANE_OPS(NVBIT_H)
#undef NVBIT_H
}

} // namespace

unsigned
SmExecutor::runTrace(WarpScheduler &sched, Interpreter &interp, unsigned w,
                     const Trace &tr, uint32_t active_mask, unsigned budget,
                     uint32_t &exec_mask)
{
    ThreadCtx *warp = sched.warp(w);
    unsigned consumed = 0;
    uint64_t last_pc = tr.entry_pc;
    uint8_t last_dst = sched.lastDst(w);
    bool first_slot = true;
    exec_mask = active_mask;

    // The trace's first issue slot tests its RAW stall against the
    // live lastDst; later slots use the compiler's precomputed flags.
    auto takeRaw = [&](bool precomputed) {
        if (!first_slot)
            return precomputed;
        first_slot = false;
        return last_dst != isa::kRegZ && tr.first_in.readsGpr(last_dst);
    };

    // Budget or trace-end exit between straight-line entries: flush
    // the deferred PC advance so every lane resumes after the last
    // issued instruction (the per-instruction path or a fresh trace
    // entry picks up there).
    auto exitHere = [&]() {
        sched.advance(w, active_mask, last_pc + ib_);
        sched.setLastDst(w, last_dst);
        return consumed;
    };

    // stepWarp fetched the head; later slots fetch from the same
    // page, which the per-instruction path counts as a cached-page hit.
    bool head = true;
    auto fetchTick = [&]() {
        if (head) {
            head = false;
            return;
        }
        ++shard_.decode_cache_hits;
    };

    for (const TraceEntry &e : tr.entries) {
        switch (e.kind) {
          case TraceEntryKind::Op:
          case TraceEntryKind::OpTerminal: {
            if (consumed >= budget)
                return exitHere();
            const bool terminal = e.kind == TraceEntryKind::OpTerminal;
            const uint32_t exec = guardMask(warp, active_mask, e.in);
            exec_mask = exec;
            const uint64_t next_pc = e.pc + ib_;
            if (terminal)
                sched.advance(w, active_mask, next_pc);
            fetchTick();
            issueSlot(e.in.op, e.pc, w, takeRaw(e.raw_stall),
                      active_mask, exec);
            ++consumed;
            cur_pc_ = e.pc;
            cur_warp_ = w;
            interp.execute(e.in, warp, active_mask, exec, e.pc, next_pc);
            if (e.is_cf)
                chargeCycles(1, obs::StallReason::BranchResolve, e.pc, w);
            last_dst = e.in.writesGpr() ? e.in.rd : isa::kRegZ;
            last_pc = e.pc;
            if (terminal) {
                sched.setLastDst(w, last_dst);
                return consumed;
            }
            break;
          }

          case TraceEntryKind::Strip: {
            const StripRun &run = tr.strips[e.idx];
            if (consumed >= budget)
                return exitHere();
            const size_t nops =
                std::min<size_t>(run.ops.size(), budget - consumed);
            // Accounting pass first, in program order (charges,
            // samples and watchdog checks interleave exactly as
            // per-instruction execution would).  Register effects
            // of ops "before" a watchdog throw are unobservable —
            // the CTA is abandoned and strip ops touch no memory —
            // so the lane work runs afterwards in one threaded
            // dispatch pass.
            exec_mask = active_mask;
            cur_warp_ = w;
            for (size_t i = 0; i < nops; ++i) {
                const StripOp &op = run.ops[i];
                fetchTick();
                cur_pc_ = op.pc;
                issueSlot(op.op, op.pc, w, takeRaw(op.raw_stall),
                          active_mask, active_mask);
                ++consumed;
                last_dst = op.arch_dst;
                last_pc = op.pc;
            }
            // Gather -> execute -> scatter over SoA lane strips.
            uint32_t *S = strip_regs_.data();
            std::memset(S, 0, kWarpSize * sizeof(uint32_t)); // zero slot
            for (size_t i = 0; i < run.gather.size(); ++i) {
                uint32_t *dst = S + (StripRun::kFirstVarSlot + i) * kWarpSize;
                const uint8_t r = run.gather[i];
                for (unsigned l = 0; l < kWarpSize; ++l)
                    dst[l] = warp[l].regs[r];
            }
            uint32_t *cs =
                S + (StripRun::kFirstVarSlot + run.gather.size()) * kWarpSize;
            for (size_t k = 0; k < run.consts.size(); ++k) {
                for (unsigned l = 0; l < kWarpSize; ++l)
                    cs[k * kWarpSize + l] = run.consts[k];
            }
            if (run.preds) {
                for (unsigned l = 0; l < kWarpSize; ++l)
                    strip_preds_[l] = warp[l].preds;
            }
            execStripOps(run.ops.data(), run.ops.data() + nops, S,
                         strip_preds_.data());
            for (auto [slot, r] : run.scatter) {
                const uint32_t *src = S + slot * kWarpSize;
                for (unsigned l = 0; l < kWarpSize; ++l)
                    warp[l].regs[r] = src[l];
            }
            if (run.preds) {
                for (unsigned l = 0; l < kWarpSize; ++l)
                    warp[l].preds = strip_preds_[l];
            }
            if (nops < run.ops.size())
                return exitHere(); // budget ended mid-run
            break;
          }

          case TraceEntryKind::Probe:
          case TraceEntryKind::ProbeTerminal: {
            if (budget - consumed < 2)
                return exitHere();
            const InlineProbe &pr = tr.probes[e.idx];
            const bool terminal = e.kind == TraceEntryKind::ProbeTerminal;

            // 1) The patched JMP's issue slot (always-executing).
            fetchTick();
            exec_mask = active_mask;
            cur_pc_ = e.pc;
            cur_warp_ = w;
            issueSlot(isa::Opcode::JMP, e.pc, w, takeRaw(e.raw_stall),
                      active_mask, active_mask);
            ++consumed;
            chargeCycles(1, obs::StallReason::BranchResolve, e.pc, w);

            // 2) Inlined tool body: ballot/popc/atomic-add, the
            // exact arithmetic of the trampoline's tool function.
            const uint32_t pm = pr.ballot_guard
                                    ? guardMask(warp, active_mask, pr.orig)
                                    : active_mask;
            const uint64_t P = static_cast<uint64_t>(std::popcount(pm));
            // Tool counters are u64 ADD reductions: they commit in
            // grid order on the same path as RED.
            ReductionLog *log = reductionLog();
            auto probeFault = [&]() {
                return DeviceException::memFault(
                    TrapCode::OutOfBoundsGlobal,
                    "inline probe counter access out of bounds",
                    e.pc, pr.table_ptr, MemSpace::Global, true);
            };
            auto count = [&](uint64_t addr, uint64_t v) {
                if ((addr & 7) != 0 || !mem_.inRange(addr, 8))
                    throw probeFault();
                const Reduction r{addr, v, isa::AtomOp::ADD, isa::DType::U64};
                if (log != nullptr)
                    log->add(r.addr, r.op, r.dt, r.value);
                else
                    applyReduction(mem_, r);
            };
            if (pr.warp_counter)
                count(pr.warp_counter, pr.scale);
            if (P != 0) {
                if (pr.thread_counter)
                    count(pr.thread_counter, P * pr.scale);
                if (pr.table_ptr) {
                    // The table base is a plain load.
                    if (log != nullptr && log->overlaps(pr.table_ptr, 8)) {
                        atomicFence();
                        log = nullptr;
                    }
                    uint64_t base = 0;
                    try {
                        base = mem_.read64(pr.table_ptr);
                    } catch (const mem::DeviceMemory::MemFault &) {
                        throw probeFault();
                    }
                    count(base + static_cast<uint64_t>(pr.index) * 8,
                          P * pr.scale);
                }
            }

            // 3) The displaced original, as a full issue slot at
            // the callsite pc (the un-relocated decoded original,
            // so PC-relative semantics match in-place execution).
            const isa::Instruction &oin = pr.orig;
            const uint32_t exec = guardMask(warp, active_mask, oin);
            exec_mask = exec;
            const uint64_t next_pc = e.pc + ib_;
            if (terminal)
                sched.advance(w, active_mask, next_pc);
            fetchTick();
            // The JMP wrote no GPR: no RAW bubble.
            issueSlot(oin.op, e.pc, w, false, active_mask, exec);
            ++consumed;
            cur_pc_ = e.pc;
            cur_warp_ = w;
            interp.execute(oin, warp, active_mask, exec, e.pc, next_pc);
            if (oin.isControlFlow())
                chargeCycles(1, obs::StallReason::BranchResolve, e.pc, w);
            last_dst = oin.writesGpr() ? oin.rd : isa::kRegZ;
            last_pc = e.pc;
            if (terminal) {
                sched.setLastDst(w, last_dst);
                return consumed;
            }
            break;
          }
        }
    }
    // Side-exit: the superblock ended without a terminal (page
    // boundary / size cap / untraceable successor).
    return exitHere();
}

} // namespace nvbit::sim
