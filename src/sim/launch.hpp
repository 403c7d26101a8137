/**
 * @file
 * Launch-level types shared by every layer of the execution pipeline
 * (warp scheduler, interpreter, SM executor, device orchestration).
 */
#ifndef NVBIT_SIM_LAUNCH_HPP
#define NVBIT_SIM_LAUNCH_HPP

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace nvbit::sim {

/** Structured trap kinds a simulated kernel can raise. */
enum class TrapCode : uint8_t {
    None = 0,
    /** Instruction bytes at the PC do not decode. */
    IllegalInstruction,
    /** Instruction fetch from unmapped device memory. */
    InvalidPc,
    /** Naturally misaligned data access. */
    MisalignedAddress,
    OutOfBoundsGlobal,
    OutOfBoundsLocal,
    OutOfBoundsShared,
    OutOfBoundsConst,
    CallStackOverflow,
    CallStackUnderflow,
    /** Threads wait at a barrier that can never be released. */
    BarrierDeadlock,
    /** Launch exceeded the cycle or warp-instruction watchdog. */
    WatchdogTimeout,
    /** A sanitizer finding promoted to a trap
     *  (NVBIT_SIM_SANCHECK_FATAL=1; see docs/observability.md). */
    SanitizerError,
};

/** Memory space of a faulting access. */
enum class MemSpace : uint8_t { None = 0, Global, Local, Shared, Const };

constexpr const char *
trapCodeName(TrapCode c)
{
    switch (c) {
      case TrapCode::None: return "none";
      case TrapCode::IllegalInstruction: return "illegal_instruction";
      case TrapCode::InvalidPc: return "invalid_pc";
      case TrapCode::MisalignedAddress: return "misaligned_address";
      case TrapCode::OutOfBoundsGlobal: return "oob_global";
      case TrapCode::OutOfBoundsLocal: return "oob_local";
      case TrapCode::OutOfBoundsShared: return "oob_shared";
      case TrapCode::OutOfBoundsConst: return "oob_const";
      case TrapCode::CallStackOverflow: return "call_stack_overflow";
      case TrapCode::CallStackUnderflow: return "call_stack_underflow";
      case TrapCode::BarrierDeadlock: return "barrier_deadlock";
      case TrapCode::WatchdogTimeout: return "watchdog_timeout";
      case TrapCode::SanitizerError: return "sanitizer_error";
    }
    return "unknown";
}

constexpr const char *
memSpaceName(MemSpace s)
{
    switch (s) {
      case MemSpace::None: return "none";
      case MemSpace::Global: return "global";
      case MemSpace::Local: return "local";
      case MemSpace::Shared: return "shared";
      case MemSpace::Const: return "const";
    }
    return "unknown";
}

/**
 * Thrown when simulated code faults.  The interpreter fills the trap
 * code, pc and fault-address fields at the throw site; the SM layer
 * annotates the execution context (warp, active mask, CTA, SM) as the
 * exception propagates, so a fully attributed record reaches the
 * driver regardless of which engine (serial/parallel, traced or not)
 * was running.
 */
struct DeviceException : std::exception {
    TrapCode code = TrapCode::None;
    std::string reason;
    uint64_t pc = 0;

    // Memory-fault details (valid for the OutOfBounds*/Misaligned codes).
    uint64_t fault_addr = 0;
    MemSpace space = MemSpace::None;
    bool is_write = false;

    // Execution context, annotated by the SM layer.
    bool has_context = false;
    uint32_t ctaid[3] = {0, 0, 0};
    uint64_t cta_index = 0;
    unsigned warp_id = 0;
    uint32_t active_mask = 0;
    unsigned sm_id = 0;

    /** Warps stuck at the barrier (BarrierDeadlock only). */
    std::vector<uint32_t> stuck_warps;

    /**
     * Return-address stack of the lowest active faulting lane,
     * innermost last.  Lets the NVBit core attribute faults raised
     * inside injected tool functions back to the trampoline call site.
     */
    std::vector<uint64_t> ret_stack;

    DeviceException() = default;
    DeviceException(TrapCode c, std::string r, uint64_t at)
        : code(c), reason(std::move(r)), pc(at)
    {}

    static DeviceException
    memFault(TrapCode c, std::string r, uint64_t at, uint64_t addr,
             MemSpace s, bool write)
    {
        DeviceException e(c, std::move(r), at);
        e.fault_addr = addr;
        e.space = s;
        e.is_write = write;
        return e;
    }

    const char *what() const noexcept override { return reason.c_str(); }
};

/** Everything needed to run one kernel grid. */
struct LaunchParams {
    uint64_t entry_pc = 0;
    /**
     * Kernel name for observability (launch records, trace spans).
     * Carried in the launch parameters so concurrent launches publish
     * their names atomically with their stats — there is no
     * "label the last launch" window for another tenant to race.
     */
    std::string label;
    uint32_t grid[3] = {1, 1, 1};
    uint32_t block[3] = {1, 1, 1};
    /** Registers per thread (used for occupancy accounting). */
    uint32_t num_regs = 32;
    /** Per-thread local-memory (stack) bytes; R1 is initialised to it. */
    uint32_t local_bytes = 1024;
    /** Shared memory bytes per thread block. */
    uint32_t shared_bytes = 0;
    /** Constant bank 0: kernel parameters. */
    std::vector<uint8_t> bank0;
    /** Constant bank 1: module constants (incl. global-address table). */
    std::vector<uint8_t> bank1;
    /**
     * Constant bank 2: NVBit tool-module constants.  Mapped by the
     * driver whenever a tool module is loaded, so injected device
     * functions can reach their globals from any kernel.
     */
    std::vector<uint8_t> bank2;
};

} // namespace nvbit::sim

#endif // NVBIT_SIM_LAUNCH_HPP
