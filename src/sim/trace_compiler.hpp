/**
 * @file
 * Trace compiler: superblock discovery and handler pre-binding.
 *
 * The per-instruction engine re-derives everything about an
 * instruction on every dynamic execution: fetch, guard-predicate
 * evaluation, operand-shape interpretation inside the big interpreter
 * switch, and strided register-file access through ThreadCtx.  The
 * trace compiler applies the paper's amortisation lesson one level up
 * from the predecode cache: a straight-line *superblock* (entry pc up
 * to and including the first control-flow / barrier / exit
 * instruction) is compiled once into an array of pre-bound entries
 * that the SM replays with computed-goto threaded dispatch
 * (sim/trace_exec.cpp).
 *
 * Three entry kinds exist:
 *
 *  - Op: one instruction executed through the regular interpreter,
 *    but with fetch, shape checks and the RAW-stall test resolved at
 *    build time.
 *  - Strip: a run of always-executing instructions that the shared
 *    op table holds (laneShape(), lane_ops.hpp).  Their register
 *    operands are gathered into SoA lane strips (contiguous 32-lane
 *    arrays; immediates become constant strips, CuLifter-style operand
 *    shapes recovered once at build time) and written back once at the
 *    end of the run.  Each op runs the same NVBIT_LANE_OPS body the
 *    interpreter runs, so a strip restates no op semantics.
 *  - Probe: an NVBit instrumentation callsite (the patched
 *    jump-to-trampoline) whose tool function matches a declared
 *    inline-probe shape; the ballot/leader/atomic-add semantics are
 *    executed directly by the SM instead of interpreting the whole
 *    save/marshal/call/restore trampoline (paper Figures 5/8).
 *
 * A trace is compiled from the decoded entries of one predecoded page
 * (sim/predecode.hpp), never spans it and is retired with it.  It
 * contains no instruction that can change a thread's PC or state
 * except as its final entry, so the entry guard "every live lane is
 * Ready and converged at the entry pc" holds for the whole trace.
 */
#ifndef NVBIT_SIM_TRACE_COMPILER_HPP
#define NVBIT_SIM_TRACE_COMPILER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "isa/instruction.hpp"
#include "sim/lane_ops.hpp"

namespace nvbit::sim {

/** One pre-specialised strip operation over SoA lane strips. */
struct StripOp {
    LaneOp h = LaneOp::Mov;            ///< the table op (lane_ops.hpp)
    isa::Opcode op = isa::Opcode::NOP; ///< stats attribution
    uint8_t d = 0;  ///< dst slot (the sink when the op writes no GPR)
    uint8_t a = 0;  ///< src slot
    uint8_t b = 0;  ///< src slot
    uint8_t c = 0;  ///< src slot (IMad/FFma)
    uint8_t aux = 0;          ///< LaneShape::aux
    uint8_t pd = isa::kPredT; ///< LaneShape::pd (the SETP ops)
    /** GPR this op architecturally writes (kRegZ when none); the RAW
     *  stall chain and WarpScheduler::lastDst are maintained from it. */
    uint8_t arch_dst = isa::kRegZ;
    /** Reads the previous issue slot's destination (precomputed). */
    bool raw_stall = false;
    uint64_t pc = 0;
};

/**
 * A run of strip ops plus its register-file interface.
 *
 * Slot layout: slot 0 always reads zero (RZ sources), slot 1 is a
 * write sink (RZ destinations), variable slots follow (one per
 * architectural register the run touches, gathered before the first
 * op and scattered after the last), then constant slots (immediates
 * splatted across lanes at gather time, never written).
 */
struct StripRun {
    static constexpr uint8_t kZeroSlot = 0;
    static constexpr uint8_t kSinkSlot = 1;
    static constexpr uint8_t kFirstVarSlot = 2;
    /** Slot budget per run (zero/sink/vars/consts). */
    static constexpr unsigned kMaxSlots = 64;

    std::vector<StripOp> ops;
    /** Architectural register of each variable slot, in slot order. */
    std::vector<uint8_t> gather;
    /** (slot, arch reg) written back when the run exits or faults. */
    std::vector<std::pair<uint8_t, uint8_t>> scatter;
    /** Constant-slot values, in slot order after the variable slots. */
    std::vector<uint32_t> consts;
    uint8_t nslots = 0;  ///< zero + sink + vars + consts
    bool preds = false;  ///< gather/scatter the predicate strip
};

/**
 * One inlined instrumentation callsite, registered by the NVBit core
 * when a tool's probe matches a declared inline shape
 * (nvbit_declare_inline_probe).  Executed by the trace engine as:
 *
 *   P = popcount(ballot_guard ? ballot(orig guard, active) : active)
 *   warp_counter   += scale                        (always)
 *   thread_counter += P * scale                    (when P != 0)
 *   [*table_ptr + index * 8] += P * scale          (when P != 0)
 *
 * which is exactly what the leader-elected popc/atomic-add trampoline
 * bodies of instr_count / bbv_profiler compute, so tool-visible
 * counter values are identical to the trampoline path.
 */
struct InlineProbe {
    uint64_t jmp_pc = 0;        ///< pc of the patched JMP
    uint64_t tramp_target = 0;  ///< its target (staleness check)
    isa::Instruction orig{};    ///< the displaced original instruction
    bool ballot_guard = false;  ///< P counts guard-passing lanes
    uint64_t warp_counter = 0;  ///< device address of a u64 (0 = none)
    uint64_t thread_counter = 0;///< device address of a u64 (0 = none)
    uint64_t table_ptr = 0;     ///< address of a u64 *pointer* to a
                                ///< u64 table (0 = none)
    uint32_t index = 0;         ///< table index (captured imm arg)
    uint64_t scale = 1;         ///< multiplier (captured imm arg or 1)
};

enum class TraceEntryKind : uint8_t {
    Op,            ///< one interpreter-executed instruction
    OpTerminal,    ///< ditto, ends the trace (control flow/EXIT/BAR)
    Strip,         ///< StripRun (index in `idx`)
    Probe,         ///< inline probe + its original instruction
    ProbeTerminal, ///< ditto, original is control flow/EXIT/BAR
};

struct TraceEntry {
    TraceEntryKind kind = TraceEntryKind::Op;
    /** First instruction of the entry reads the previous issue slot's
     *  destination (entry 0: evaluated dynamically at trace entry). */
    bool raw_stall = false;
    /** Charge a BranchResolve cycle after executing (Op kinds). */
    bool is_cf = false;
    uint16_t idx = 0; ///< strip / probe index
    isa::Instruction in{};
    uint64_t pc = 0;
};

/** One compiled superblock. */
struct Trace {
    uint64_t entry_pc = 0;
    /** Issue slots the full trace consumes (strip ops and probe
     *  originals included; quantum-budget accounting). */
    uint32_t n_instrs = 0;
    /** First instruction (the entry probe's JMP for probe-led traces);
     *  the executor evaluates the trace's first RAW stall dynamically
     *  against WarpScheduler::lastDst with it. */
    isa::Instruction first_in{};
    std::vector<TraceEntry> entries;
    std::vector<StripRun> strips;
    std::vector<InlineProbe> probes;
};

/** Inline probes keyed by callsite pc. */
using ProbeMap = std::map<uint64_t, InlineProbe>;

struct PredecodedImage;

/**
 * Compile the superblock entered at entry @p start of @p page (entries
 * @p ib bytes apart), inlining the still-valid probes of @p probes.
 * @return nullptr when no worthwhile trace starts there (an illegal or
 * unmapped entry, an immediate terminator, or fewer than two
 * instructions with no probe to inline).
 */
std::unique_ptr<Trace> compileTrace(const PredecodedImage &page,
                                    size_t start, size_t ib,
                                    const ProbeMap &probes);

} // namespace nvbit::sim

#endif // NVBIT_SIM_TRACE_COMPILER_HPP
