#include "sim/interpreter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/logging.hpp"
#include "mem/shadow_memory.hpp"
#include "obs/sanitizer.hpp"
#include "sim/lane_ops.hpp"
#include "sim/reduction_log.hpp"

namespace nvbit::sim {

using isa::DType;
using isa::Instruction;
using isa::Opcode;

namespace {

/**
 * Bank-serialised transaction count for one warp shared-memory access.
 * @p words holds every 4-byte word index touched (duplicates allowed —
 * lanes reading the same word broadcast and count once).  The access
 * replays once per distinct word mapped to the busiest bank.
 */
uint32_t
sharedBankTransactions(std::vector<uint64_t> &words)
{
    if (words.empty())
        return 0;
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    std::array<uint32_t, obs::kSharedBanks> per_bank{};
    uint32_t worst = 0;
    for (uint64_t w : words) {
        uint32_t n = ++per_bank[w % obs::kSharedBanks];
        if (n > worst)
            worst = n;
    }
    return worst;
}

/**
 * Run table op @p s over the exec lanes of @p warp: the interpreter's
 * loop over the per-lane bodies it shares with the trace engine
 * (NVBIT_LANE_OPS, lane_ops.hpp).  The op is dispatched once per warp
 * instruction; each op has its own lane loop.
 */
void
runLaneOp(const LaneShape &s, ThreadCtx *warp, uint32_t exec_mask)
{
    [[maybe_unused]] const uint8_t aux = s.aux, dp = s.pd;
    auto src = [](const ThreadCtx &t, const LaneSrc &o) {
        return o.is_const ? o.value : t.regs[o.reg];
    };
    switch (s.op) {
#define NVBIT_LANE_LOOP(name, body)                                        \
      case LaneOp::name:                                                   \
        for (unsigned l = 0; l < kWarpSize; ++l) {                         \
            if (!((exec_mask >> l) & 1))                                   \
                continue;                                                  \
            ThreadCtx &t = warp[l];                                        \
            [[maybe_unused]] const uint32_t a = src(t, s.a),               \
                                            b = src(t, s.b),               \
                                            c = src(t, s.c);               \
            [[maybe_unused]] uint8_t &p = t.preds;                         \
            uint32_t d = 0;                                                \
            body;                                                          \
            writeReg(t, s.rd, d);                                          \
        }                                                                  \
        break;
        NVBIT_LANE_OPS(NVBIT_LANE_LOOP)
#undef NVBIT_LANE_LOOP
      case LaneOp::NumOps:
        break;
    }
}

} // namespace

Interpreter::Interpreter(const GpuConfig &cfg, mem::DeviceMemory &mem,
                         const LaunchParams &lp, unsigned sm,
                         const uint32_t ctaid[3],
                         std::vector<uint8_t> &local,
                         std::vector<uint8_t> &shared,
                         const uint64_t &cycles, MemModel &mm)
    : cfg_(cfg), mem_(mem), lp_(lp), sm_(sm),
      sector_bytes_(obs::kSectorBytes < cfg.l1.line_bytes
                        ? obs::kSectorBytes
                        : cfg.l1.line_bytes),
      local_(local), shared_(shared), cycles_(cycles), mm_(mm),
      sancheck_(cfg.sancheck_mask), shadow_(mem.shadow())
{
    ctaid_[0] = ctaid[0];
    ctaid_[1] = ctaid[1];
    ctaid_[2] = ctaid[2];
}

void
Interpreter::memTrap(uint64_t addr, uint64_t pc, MemSpace space,
                     bool write, bool misaligned)
{
    TrapCode code = TrapCode::OutOfBoundsGlobal;
    if (misaligned) {
        code = TrapCode::MisalignedAddress;
    } else if (space == MemSpace::Local) {
        code = TrapCode::OutOfBoundsLocal;
    } else if (space == MemSpace::Shared) {
        code = TrapCode::OutOfBoundsShared;
    }
    throw DeviceException::memFault(
        code,
        strfmt("%s %s %s at address 0x%llx",
               misaligned ? "misaligned" : "illegal",
               memSpaceName(space), write ? "store" : "load",
               static_cast<unsigned long long>(addr)),
        pc, addr, space, write);
}

void
Interpreter::sancheckEmit(obs::SanitizerFinding &&f, const ThreadCtx &t)
{
    f.ctaid[0] = ctaid_[0];
    f.ctaid[1] = ctaid_[1];
    f.ctaid[2] = ctaid_[2];
    f.cta_index =
        (static_cast<uint64_t>(ctaid_[2]) * lp_.grid[1] + ctaid_[1]) *
            lp_.grid[0] +
        ctaid_[0];
    f.sm_id = sm_;
    f.warp = t.flat_tid / kWarpSize;
    f.lane = t.flat_tid % kWarpSize;
    f.ret_stack.assign(t.ret_stack, t.ret_stack + t.ret_depth);
    // Capture what the fatal path needs before record() consumes f.
    const uint64_t pc = f.pc;
    const uint64_t addr = f.addr;
    const bool is_write = f.is_write;
    const obs::SanSpace space = f.space;
    std::string what = strfmt("sancheck/%s: %s",
                              obs::sanCheckName(f.check),
                              f.message.c_str());
    if (obs::Sanitizer::instance().record(std::move(f))) {
        MemSpace ms = MemSpace::None;
        if (space == obs::SanSpace::Global)
            ms = MemSpace::Global;
        else if (space == obs::SanSpace::Shared)
            ms = MemSpace::Shared;
        throw DeviceException::memFault(TrapCode::SanitizerError,
                                        std::move(what), pc, addr, ms,
                                        is_write);
    }
}

void
Interpreter::sancheckGlobal(const ThreadCtx &t, uint64_t addr,
                            unsigned bytes, uint64_t pc, SanAccess acc)
{
    if (shadow_ == nullptr || mm_.functionalMode())
        return;
    const bool is_write = acc != SanAccess::Read;
    const char *what = acc == SanAccess::Read    ? "read"
                       : acc == SanAccess::Write ? "write"
                                                 : "atomic";
    if ((sancheck_ & obs::kSancheckMemcheck) != 0) {
        uint64_t bad = 0;
        if (!shadow_->rangeAddressable(addr, bytes, &bad)) {
            obs::SanitizerFinding f;
            f.check = obs::SanCheck::Memcheck;
            f.severity = obs::SanitizerFinding::Severity::Error;
            f.pc = pc;
            f.addr = addr;
            f.bytes = bytes;
            f.space = obs::SanSpace::Global;
            f.is_write = is_write;
            mem::ShadowMemory::AllocInfo ai;
            if (shadow_->nearestAlloc(bad, ai)) {
                f.has_alloc = true;
                f.alloc_base = ai.base;
                f.alloc_bytes = ai.bytes;
                f.alloc_seq = ai.seq;
                f.alloc_live = ai.live;
            }
            const bool freed =
                f.has_alloc && !f.alloc_live && bad >= f.alloc_base &&
                bad < f.alloc_base + f.alloc_bytes;
            f.message = strfmt(
                "invalid global %s of %u bytes at 0x%llx (byte 0x%llx "
                "is %s)",
                what, bytes, static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(bad),
                freed ? "in a freed allocation"
                      : "not in any live allocation");
            sancheckEmit(std::move(f), t);
            return; // one report per access; skip the initcheck pass
        }
    }
    // A reduction counts as a write: no old value reaches the
    // program, so its findings cannot depend on commit timing.
    if ((acc == SanAccess::Read || acc == SanAccess::Atomic) &&
        (sancheck_ & obs::kSancheckInitcheck) != 0) {
        uint64_t bad = 0;
        if (shadow_->rangeAddressable(addr, bytes) &&
            !shadow_->rangeInitialized(addr, bytes, &bad)) {
            obs::SanitizerFinding f;
            f.check = obs::SanCheck::Initcheck;
            f.severity = obs::SanitizerFinding::Severity::Error;
            f.pc = pc;
            f.addr = addr;
            f.bytes = bytes;
            f.space = obs::SanSpace::Global;
            f.is_write = false;
            f.message = strfmt(
                "global %s of %u bytes at 0x%llx reads uninitialized "
                "memory (first unwritten byte 0x%llx)",
                what, bytes,
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(bad));
            sancheckEmit(std::move(f), t);
        }
    }
}

void
Interpreter::sancheckShared(const ThreadCtx &t, uint64_t addr,
                            unsigned bytes, uint64_t pc, bool is_write)
{
    if ((sancheck_ & obs::kSancheckRacecheck) == 0 ||
        mm_.functionalMode())
        return;
    if (addr + bytes > shared_.size() || addr + bytes < addr)
        return; // the architectural bounds trap reports this access
    if (race_cells_.empty())
        race_cells_.resize((shared_.size() + 3) / 4);
    const uint32_t warp1 = t.flat_tid / kWarpSize + 1;
    // First cross-warp hazard of this access (if any); cells update
    // for every word before the finding is emitted, since a fatal
    // promotion throws out of this frame.
    const char *kind = nullptr;
    uint64_t hazard_word = 0;
    uint32_t other_warp = 0;
    uint64_t other_pc = 0;
    for (uint64_t w = addr >> 2; w <= (addr + bytes - 1) >> 2; ++w) {
        RaceCell &c = race_cells_[w];
        if (kind == nullptr) {
            if (is_write && c.writer != 0 && c.writer != warp1) {
                kind = "write-after-write";
                hazard_word = w;
                other_warp = c.writer - 1;
                other_pc = c.writer_pc;
            } else if (is_write && c.reader != 0 && c.reader != warp1) {
                kind = "write-after-read";
                hazard_word = w;
                other_warp = c.reader - 1;
                other_pc = c.reader_pc;
            } else if (!is_write && c.writer != 0 &&
                       c.writer != warp1) {
                kind = "read-after-write";
                hazard_word = w;
                other_warp = c.writer - 1;
                other_pc = c.writer_pc;
            }
        }
        if (is_write) {
            c.writer = warp1;
            c.writer_pc = pc;
        } else {
            c.reader = warp1;
            c.reader_pc = pc;
        }
    }
    if (kind != nullptr) {
        obs::SanitizerFinding f;
        f.check = obs::SanCheck::Racecheck;
        f.severity = obs::SanitizerFinding::Severity::Error;
        f.pc = pc;
        f.addr = hazard_word * 4;
        f.bytes = bytes;
        f.space = obs::SanSpace::Shared;
        f.is_write = is_write;
        f.message = strfmt(
            "shared-memory %s hazard on word 0x%llx: warp %u at pc "
            "0x%llx races warp %u at pc 0x%llx (no barrier between)",
            kind, static_cast<unsigned long long>(hazard_word * 4),
            t.flat_tid / kWarpSize,
            static_cast<unsigned long long>(pc), other_warp,
            static_cast<unsigned long long>(other_pc));
        sancheckEmit(std::move(f), t);
    }
}

void
Interpreter::sancheckBarrier(const ThreadCtx *warp, uint32_t exec_mask,
                             uint64_t pc)
{
    if ((sancheck_ & obs::kSancheckSynccheck) == 0 ||
        mm_.functionalMode())
        return;
    // Live = lanes of this warp that have not exited.  Under min-PC
    // scheduling a converged warp always executes BAR with exactly its
    // live lanes, so a strict subset means divergent barrier arrival
    // within the warp (lanes parked at another barrier, or lanes that
    // branched around this one).
    uint32_t live = 0;
    for (unsigned l = 0; l < kWarpSize; ++l)
        if (warp[l].state != ThreadCtx::St::Exited)
            live |= 1u << l;
    if (exec_mask == live || exec_mask == 0)
        return;
    const unsigned lead =
        static_cast<unsigned>(std::countr_zero(exec_mask));
    obs::SanitizerFinding f;
    f.check = obs::SanCheck::Synccheck;
    f.severity = obs::SanitizerFinding::Severity::Warning;
    f.pc = pc;
    f.message = strfmt(
        "divergent barrier arrival within warp %u: lanes 0x%x execute "
        "the barrier but lanes 0x%x are live",
        warp[lead].flat_tid / kWarpSize, exec_mask, live);
    sancheckEmit(std::move(f), warp[lead]);
}

void
Interpreter::onBarrierRelease()
{
    if (!race_cells_.empty())
        std::fill(race_cells_.begin(), race_cells_.end(), RaceCell{});
}

void
Interpreter::checkGlobal(uint64_t addr, unsigned bytes, uint64_t pc)
{
    if ((addr & (bytes - 1)) != 0)
        memTrap(addr, pc, MemSpace::Global, false, true);
    if (!mem_.inRange(addr, bytes))
        memTrap(addr, pc, MemSpace::Global, false);
}

void
Interpreter::commitOverlapping(const Instruction &in, const ThreadCtx *warp,
                               uint32_t exec_mask)
{
    const ReductionLog &pending = mm_.pendingReductions();
    if (pending.empty())
        return;
    const unsigned bytes = in.memAccessBytes();
    for (unsigned l = 0; l < kWarpSize; ++l) {
        if (((exec_mask >> l) & 1) &&
            pending.overlaps(readPair(warp[l], in.ra) +
                                 static_cast<uint64_t>(in.imm),
                             bytes)) {
            mm_.atomicFence();
            return;
        }
    }
}

uint64_t
Interpreter::loadGlobal(uint64_t addr, unsigned bytes, uint64_t pc)
{
    if ((addr & (bytes - 1)) != 0)
        memTrap(addr, pc, MemSpace::Global, false, true);
    try {
        return bytes == 8 ? mem_.read64(addr) : mem_.read32(addr);
    } catch (const mem::DeviceMemory::MemFault &) {
        memTrap(addr, pc, MemSpace::Global, false);
    }
}

void
Interpreter::storeGlobal(uint64_t addr, unsigned bytes, uint64_t v,
                         uint64_t pc)
{
    if ((addr & (bytes - 1)) != 0)
        memTrap(addr, pc, MemSpace::Global, true, true);
    try {
        if (bytes == 8)
            mem_.write64(addr, v);
        else
            mem_.write32(addr, static_cast<uint32_t>(v));
    } catch (const mem::DeviceMemory::MemFault &) {
        memTrap(addr, pc, MemSpace::Global, true);
    }
}

uint8_t *
Interpreter::localPtr(const ThreadCtx &t, uint64_t addr, unsigned bytes,
                      uint64_t pc, bool write)
{
    if ((addr & (bytes - 1)) != 0)
        memTrap(addr, pc, MemSpace::Local, write, true);
    if (addr + bytes > lp_.local_bytes) {
        memTrap(addr, pc, MemSpace::Local, write);
    }
    return local_.data() +
           static_cast<size_t>(t.flat_tid) * lp_.local_bytes + addr;
}

uint8_t *
Interpreter::sharedPtr(uint64_t addr, unsigned bytes, uint64_t pc,
                       bool write)
{
    if ((addr & (bytes - 1)) != 0)
        memTrap(addr, pc, MemSpace::Shared, write, true);
    if (addr + bytes > shared_.size())
        memTrap(addr, pc, MemSpace::Shared, write);
    return shared_.data() + addr;
}

uint32_t
Interpreter::specialReg(const ThreadCtx &t, isa::SpecialReg sr) const
{
    using SR = isa::SpecialReg;
    switch (sr) {
      case SR::TID_X: return t.tid[0];
      case SR::TID_Y: return t.tid[1];
      case SR::TID_Z: return t.tid[2];
      case SR::NTID_X: return lp_.block[0];
      case SR::NTID_Y: return lp_.block[1];
      case SR::NTID_Z: return lp_.block[2];
      case SR::CTAID_X: return ctaid_[0];
      case SR::CTAID_Y: return ctaid_[1];
      case SR::CTAID_Z: return ctaid_[2];
      case SR::NCTAID_X: return lp_.grid[0];
      case SR::NCTAID_Y: return lp_.grid[1];
      case SR::NCTAID_Z: return lp_.grid[2];
      case SR::LANEID: return t.flat_tid % kWarpSize;
      case SR::WARPID: return t.flat_tid / kWarpSize;
      case SR::SMID: return sm_;
      case SR::CLOCKLO: return static_cast<uint32_t>(cycles_);
      default:
        break;
    }
    throw DeviceException(TrapCode::IllegalInstruction,
                          strfmt("S2R of unknown special register %u",
                                 static_cast<unsigned>(sr)),
                          t.pc);
}

uint64_t
Interpreter::constRead(const Instruction &in, uint64_t pc) const
{
    unsigned bank = isa::modGetCBank(in.mod);
    unsigned bytes = in.memAccessBytes();
    const std::vector<uint8_t> *b = nullptr;
    if (bank == 0)
        b = &lp_.bank0;
    else if (bank == 1)
        b = &lp_.bank1;
    else if (bank == 2)
        b = &lp_.bank2;
    else
        throw DeviceException::memFault(
            TrapCode::OutOfBoundsConst,
            strfmt("LDC from unmapped bank %u", bank), pc, in.imm,
            MemSpace::Const, false);
    uint64_t off = static_cast<uint64_t>(in.imm);
    if (off + bytes > b->size()) {
        throw DeviceException::memFault(
            TrapCode::OutOfBoundsConst,
            strfmt("LDC out of range: c[%u][0x%llx]", bank,
                   static_cast<unsigned long long>(off)),
            pc, off, MemSpace::Const, false);
    }
    uint64_t v = 0;
    std::memcpy(&v, b->data() + off, bytes);
    return v;
}

void
Interpreter::execute(const Instruction &in, ThreadCtx *warp,
                     uint32_t active_mask, uint32_t exec_mask,
                     uint64_t pc, uint64_t next_pc)
{
    (void)active_mask;
    if (LaneShape s; laneShape(in, s)) {
        runLaneOp(s, warp, exec_mask);
        return;
    }
    const bool imm_alu = (in.mod & isa::kModImmSrc2) != 0;

    auto forEachExec = [&](auto &&fn) {
        for (unsigned l = 0; l < kWarpSize; ++l)
            if ((exec_mask >> l) & 1)
                fn(warp[l], l);
    };

    auto src2 = [&](const ThreadCtx &t) -> uint32_t {
        return imm_alu ? static_cast<uint32_t>(in.imm)
                       : readReg(t, in.rb);
    };
    auto src2Pair = [&](const ThreadCtx &t) -> uint64_t {
        return imm_alu ? static_cast<uint64_t>(in.imm)
                       : readPair(t, in.rb);
    };

    switch (in.op) {
      case Opcode::NOP:
        break;

      case Opcode::EXIT:
        forEachExec([&](ThreadCtx &t, unsigned) {
            t.state = ThreadCtx::St::Exited;
        });
        break;

      case Opcode::BRA:
        forEachExec([&](ThreadCtx &t, unsigned) {
            t.pc = next_pc + in.imm;
        });
        break;

      case Opcode::JMP:
        forEachExec([&](ThreadCtx &t, unsigned) {
            t.pc = static_cast<uint64_t>(in.imm) * isa::kJmpScale;
        });
        break;

      case Opcode::BRX:
        forEachExec([&](ThreadCtx &t, unsigned) {
            t.pc = readReg(t, in.ra);
        });
        break;

      case Opcode::CAL:
        forEachExec([&](ThreadCtx &t, unsigned) {
            if (t.ret_depth >= kMaxCallDepth)
                throw DeviceException(TrapCode::CallStackOverflow,
                                      "call stack overflow", pc);
            t.ret_stack[t.ret_depth++] = next_pc;
            t.pc = static_cast<uint64_t>(in.imm) * isa::kJmpScale;
        });
        break;

      case Opcode::RET:
        forEachExec([&](ThreadCtx &t, unsigned) {
            if (t.ret_depth == 0)
                throw DeviceException(TrapCode::CallStackUnderflow,
                                      "RET with empty call stack", pc);
            t.pc = t.ret_stack[--t.ret_depth];
        });
        break;

      case Opcode::BAR:
        if (!in.alwaysExecutes())
            throw DeviceException(TrapCode::IllegalInstruction,
                                  "predicated BAR is not supported", pc);
        if (sancheck_ != 0)
            sancheckBarrier(warp, exec_mask, pc);
        forEachExec([&](ThreadCtx &t, unsigned) {
            t.state = ThreadCtx::St::Barrier;
        });
        break;

      // The table holds every other form of these eight (laneShape).
      case Opcode::MOV: // Alu1 form: the register source is ra
        forEachExec([&](ThreadCtx &t, unsigned) {
            writePair(t, in.rd,
                      imm_alu ? static_cast<uint64_t>(in.imm)
                              : readPair(t, in.ra));
        });
        break;
      case Opcode::SHL:
        forEachExec([&](ThreadCtx &t, unsigned) {
            writePair(t, in.rd, readPair(t, in.ra) << (src2(t) & 63));
        });
        break;
      case Opcode::SHR:
        forEachExec([&](ThreadCtx &t, unsigned) {
            writePair(t, in.rd, readPair(t, in.ra) >> (src2(t) & 63));
        });
        break;
      case Opcode::IADD:
        forEachExec([&](ThreadCtx &t, unsigned) {
            writePair(t, in.rd, readPair(t, in.ra) + src2Pair(t));
        });
        break;
      case Opcode::ISUB:
        forEachExec([&](ThreadCtx &t, unsigned) {
            writePair(t, in.rd, readPair(t, in.ra) - src2Pair(t));
        });
        break;
      case Opcode::IMUL:
        forEachExec([&](ThreadCtx &t, unsigned) {
            writePair(t, in.rd, readPair(t, in.ra) * src2Pair(t));
        });
        break;
      case Opcode::IMAD:
        forEachExec([&](ThreadCtx &t, unsigned) {
            // Wide form: pair = u32 * u32 + pair.
            uint64_t prod = static_cast<uint64_t>(readReg(t, in.ra)) *
                            static_cast<uint64_t>(readReg(t, in.rb));
            writePair(t, in.rd, prod + readPair(t, in.rc));
        });
        break;
      case Opcode::ISETP: {
        // U64, or S32 against an immediate wider than 32 bits.
        const bool imm_setp = (in.mod & isa::kModSetpImm) != 0;
        const bool u64 = isa::modGetSetpDType(in.mod) == DType::U64;
        const isa::CmpOp cmp = isa::modGetCmp(in.mod);
        forEachExec([&](ThreadCtx &t, unsigned) {
            const bool r =
                u64 ? cmpApply<uint64_t>(
                          cmp, readPair(t, in.ra),
                          imm_setp ? static_cast<uint64_t>(in.imm)
                                   : readPair(t, in.rb))
                    : cmpApply<int64_t>(
                          cmp, static_cast<int32_t>(readReg(t, in.ra)),
                          in.imm);
            writePredBit(t.preds, in.rd & 0x7, r);
        });
        break;
      }

      case Opcode::LDG: {
        GlobalAccess ga;
        ga.kind = GlobalAccess::Kind::Load;
        unsigned bytes = in.memAccessBytes();
        commitOverlapping(in, warp, exec_mask);
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readPair(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            ga.sectors.insert(
                addr & ~static_cast<uint64_t>(sector_bytes_ - 1));
            ++ga.lanes;
            ga.bytes += bytes;
            if (sancheck_ != 0)
                sancheckGlobal(t, addr, bytes, pc, SanAccess::Read);
            uint64_t v = loadGlobal(addr, bytes, pc);
            if (bytes == 8)
                writePair(t, in.rd, v);
            else
                writeReg(t, in.rd, static_cast<uint32_t>(v));
        });
        mm_.accountGlobalAccess(ga);
        break;
      }
      case Opcode::STG: {
        GlobalAccess ga;
        ga.kind = GlobalAccess::Kind::Store;
        unsigned bytes = in.memAccessBytes();
        commitOverlapping(in, warp, exec_mask);
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readPair(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            ga.sectors.insert(
                addr & ~static_cast<uint64_t>(sector_bytes_ - 1));
            ++ga.lanes;
            ga.bytes += bytes;
            uint64_t v = bytes == 8 ? readPair(t, in.rb)
                                    : readReg(t, in.rb);
            if (sancheck_ != 0)
                sancheckGlobal(t, addr, bytes, pc, SanAccess::Write);
            storeGlobal(addr, bytes, v, pc);
        });
        mm_.accountGlobalAccess(ga);
        break;
      }
      case Opcode::LDL: {
        unsigned bytes = in.memAccessBytes();
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readReg(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            uint64_t v = 0;
            std::memcpy(&v, localPtr(t, addr, bytes, pc, false), bytes);
            if (bytes == 8)
                writePair(t, in.rd, v);
            else
                writeReg(t, in.rd, static_cast<uint32_t>(v));
        });
        break;
      }
      case Opcode::STL: {
        unsigned bytes = in.memAccessBytes();
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readReg(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            uint64_t v = bytes == 8 ? readPair(t, in.rb)
                                    : readReg(t, in.rb);
            std::memcpy(localPtr(t, addr, bytes, pc, true), &v, bytes);
        });
        break;
      }
      case Opcode::LDS: {
        unsigned bytes = in.memAccessBytes();
        SharedAccess sa;
        sa.write = false;
        std::vector<uint64_t> words;
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readReg(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            ++sa.lanes;
            words.push_back(addr >> 2);
            if (bytes == 8)
                words.push_back((addr >> 2) + 1);
            if (sancheck_ != 0)
                sancheckShared(t, addr, bytes, pc, false);
            uint64_t v = 0;
            std::memcpy(&v, sharedPtr(addr, bytes, pc, false), bytes);
            if (bytes == 8)
                writePair(t, in.rd, v);
            else
                writeReg(t, in.rd, static_cast<uint32_t>(v));
        });
        sa.transactions = sharedBankTransactions(words);
        if (sa.lanes != 0)
            mm_.accountSharedAccess(sa);
        break;
      }
      case Opcode::STS: {
        unsigned bytes = in.memAccessBytes();
        SharedAccess sa;
        sa.write = true;
        std::vector<uint64_t> words;
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readReg(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            ++sa.lanes;
            words.push_back(addr >> 2);
            if (bytes == 8)
                words.push_back((addr >> 2) + 1);
            if (sancheck_ != 0)
                sancheckShared(t, addr, bytes, pc, true);
            uint64_t v = bytes == 8 ? readPair(t, in.rb)
                                    : readReg(t, in.rb);
            std::memcpy(sharedPtr(addr, bytes, pc, true), &v, bytes);
        });
        sa.transactions = sharedBankTransactions(words);
        if (sa.lanes != 0)
            mm_.accountSharedAccess(sa);
        break;
      }
      case Opcode::LDC: {
        unsigned bytes = in.memAccessBytes();
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t v = constRead(in, pc);
            if (bytes == 8)
                writePair(t, in.rd, v);
            else
                writeReg(t, in.rd, static_cast<uint32_t>(v));
        });
        break;
      }
      case Opcode::ATOM: {
        GlobalAccess ga;
        ga.kind = GlobalAccess::Kind::Atomic;
        const isa::AtomOp aop = isa::modGetAtomOp(in.mod);
        const DType adt = isa::modGetAtomDType(in.mod);
        const unsigned bytes = (adt == DType::U64) ? 8 : 4;
        // A reduction never waits: it goes to this block's log unless
        // the block is the commit head.  Any other atomic first
        // becomes the head.
        const bool red = isReduction(in);
        ReductionLog *log = nullptr;
        if (exec_mask != 0) {
            if (red)
                log = mm_.reductionLog();
            else
                mm_.atomicFence();
        }
        forEachExec([&](ThreadCtx &t, unsigned) {
            uint64_t addr = readPair(t, in.ra) +
                            static_cast<uint64_t>(in.imm);
            ga.sectors.insert(
                addr & ~static_cast<uint64_t>(sector_bytes_ - 1));
            ++ga.lanes;
            ga.bytes += bytes;
            if (sancheck_ != 0)
                sancheckGlobal(t, addr, bytes, pc,
                               red ? SanAccess::Reduction
                                   : SanAccess::Atomic);
            uint64_t b = bytes == 8 ? readPair(t, in.rb)
                                    : readReg(t, in.rb);
            if (log != nullptr) {
                // Faults at issue, exactly as the direct path below.
                checkGlobal(addr, bytes, pc);
                log->add(addr, aop, adt, b);
                return;
            }
            uint64_t old_v = loadGlobal(addr, bytes, pc);
            uint64_t c = bytes == 8 ? readPair(t, in.rc)
                                    : readReg(t, in.rc);
            uint64_t new_v = atomApply(aop, adt, old_v, b, c);
            storeGlobal(addr, bytes, new_v, pc);
            if (bytes == 8)
                writePair(t, in.rd, old_v);
            else
                writeReg(t, in.rd, static_cast<uint32_t>(old_v));
        });
        mm_.accountGlobalAccess(ga);
        break;
      }

      case Opcode::VOTE: {
        uint32_t ballot = 0;
        uint8_t psrc = isa::modGetVotePred(in.mod);
        bool pneg = isa::modGetVotePredNeg(in.mod);
        forEachExec([&](ThreadCtx &t, unsigned l) {
            if (predBit(t.preds, psrc, pneg))
                ballot |= 1u << l;
        });
        uint32_t result;
        switch (isa::modGetVoteMode(in.mod)) {
          case isa::VoteMode::BALLOT:
            result = ballot;
            break;
          case isa::VoteMode::ANY:
            result = ballot != 0;
            break;
          case isa::VoteMode::ALL:
          default:
            result = (ballot == exec_mask);
            break;
        }
        forEachExec([&](ThreadCtx &t, unsigned) {
            writeReg(t, in.rd, result);
        });
        break;
      }
      case Opcode::MATCH: {
        const bool wide = (in.mod & isa::kModSize64) != 0;
        std::array<uint64_t, kWarpSize> vals{};
        forEachExec([&](ThreadCtx &t, unsigned l) {
            vals[l] = wide ? readPair(t, in.ra) : readReg(t, in.ra);
        });
        forEachExec([&](ThreadCtx &t, unsigned l) {
            uint32_t m = 0;
            for (unsigned j = 0; j < kWarpSize; ++j) {
                if (((exec_mask >> j) & 1) && vals[j] == vals[l])
                    m |= 1u << j;
            }
            writeReg(t, in.rd, m);
        });
        break;
      }
      case Opcode::SHFL: {
        const bool imm_lane = (in.mod & isa::kModShflImm) != 0;
        std::array<uint32_t, kWarpSize> vals{};
        forEachExec([&](ThreadCtx &t, unsigned l) {
            vals[l] = readReg(t, in.ra);
        });
        forEachExec([&](ThreadCtx &t, unsigned l) {
            uint32_t b = imm_lane ? static_cast<uint32_t>(in.imm)
                                  : readReg(t, in.rb);
            int src;
            switch (isa::modGetShflMode(in.mod)) {
              case isa::ShflMode::IDX: src = b & 31; break;
              case isa::ShflMode::UP:
                src = static_cast<int>(l) - static_cast<int>(b);
                break;
              case isa::ShflMode::DOWN:
                src = static_cast<int>(l) + static_cast<int>(b);
                break;
              case isa::ShflMode::BFLY:
              default:
                src = static_cast<int>(l ^ b) & 31;
                break;
            }
            uint32_t v = vals[l]; // out-of-range keeps own value
            if (src >= 0 && src < static_cast<int>(kWarpSize) &&
                ((exec_mask >> src) & 1)) {
                v = vals[src];
            }
            writeReg(t, in.rd, v);
        });
        break;
      }
      case Opcode::S2R:
        forEachExec([&](ThreadCtx &t, unsigned) {
            writeReg(t, in.rd,
                     specialReg(t, static_cast<isa::SpecialReg>(
                                       in.imm)));
        });
        break;

      case Opcode::PROXY:
        if (exec_mask != 0) {
            throw DeviceException(
                TrapCode::IllegalInstruction,
                strfmt("PROXY instruction (id %lld) executed without "
                       "emulation — an NVBit tool must replace it",
                       static_cast<long long>(in.imm)),
                pc);
        }
        break;

      default:
        throw DeviceException(TrapCode::IllegalInstruction,
                              strfmt("unimplemented opcode %s",
                                     isa::opcodeName(in.op)),
                              pc);
    }
}

} // namespace nvbit::sim
