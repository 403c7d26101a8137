/**
 * @file
 * Public interface of the PTX-like virtual-ISA compiler ("ptxas").
 *
 * The compiler plays the role of NVIDIA's back-end compiler in the
 * paper's software stack (Section 2.2): it translates the virtual ISA
 * into SASS-like machine instructions with full register allocation and
 * an ABI-compliant stack frame.  It is used in two places, exactly as
 * on the real stack:
 *   - ahead-of-time, to produce "pre-compiled" binary module images
 *     (applications, accelerated libraries, NVBit tool device
 *     functions), and
 *   - at run time by the driver, to JIT modules that ship PTX text.
 */
#ifndef NVBIT_PTX_COMPILER_HPP
#define NVBIT_PTX_COMPILER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/arch.hpp"
#include "isa/instruction.hpp"

namespace nvbit::ptx {

/** Thrown on malformed PTX input; carries the offending source line. */
struct CompileError {
    std::string message;
    int line = 0;
};

// Resource caps: source that exceeds one is rejected with a
// CompileError, so a declaration can neither exhaust host memory nor
// wrap a size.  The last three mirror CUDA's limits.

/** Virtual registers one function may declare. */
constexpr uint64_t kMaxRegisters = 1 << 16;
/** Bytes in one variable; the default device holds 96 MiB. */
constexpr uint64_t kMaxVarBytes = 128ull << 20;
/** Static .shared bytes per function. */
constexpr uint64_t kMaxSharedBytes = 48 << 10;
/** .local bytes per thread per function. */
constexpr uint64_t kMaxLocalBytes = 512 << 10;
/** Bytes in a module's constant bank: .const data plus global slots. */
constexpr uint64_t kMaxConstBytes = 64 << 10;

/** Kind of one kernel/function parameter. */
enum class ParamKind : uint8_t { U32 = 0, U64 = 1 };

/** @return byte size of a parameter kind (4 or 8). */
constexpr unsigned
paramBytes(ParamKind k)
{
    return k == ParamKind::U32 ? 4 : 8;
}

struct ParamInfo {
    std::string name;
    ParamKind kind;
    /** For .entry functions: byte offset within constant bank 0. */
    uint32_t bank0_offset = 0;
};

/** Source-correlation entry: instruction index -> file/line. */
struct LineInfo {
    uint32_t instr_index;
    uint32_t file_index; ///< into CompiledModule::files
    uint32_t line;
};

/** A call site whose CAL target must be patched at module load time. */
struct CallReloc {
    uint32_t instr_index;
    std::string callee;
};

/** One compiled function (kernel or device function). */
struct CompiledFunction {
    std::string name;
    bool is_entry = false;
    std::vector<ParamInfo> params;
    /** Decoded instructions; CAL targets of relocs hold imm = 0. */
    std::vector<isa::Instruction> code;
    /** Highest register index used + 1 ("maximum register usage"). */
    uint32_t num_regs = 0;
    /** Stack frame bytes (locals + call-save area). */
    uint32_t frame_bytes = 0;
    /** Static shared memory bytes. */
    uint32_t shared_bytes = 0;
    /** Names of functions this function may call ("related"). */
    std::vector<std::string> related;
    std::vector<CallReloc> relocs;
    std::vector<LineInfo> line_info;
    /** True if the function calls any nvbit_* device-API builtin. */
    bool uses_device_api = false;
    /** Total bank-0 parameter bytes (entry functions). */
    uint32_t param_bytes = 0;
};

/** A module-scope .global variable. */
struct GlobalVar {
    std::string name;
    uint64_t size_bytes;
    /** Byte offset of this variable's 8-byte address slot in bank 1. */
    uint32_t addr_slot;
    /** Optional initialiser (empty = zero-fill). */
    std::vector<uint8_t> init;
};

/**
 * Result of compiling one PTX module.  Device addresses are not yet
 * assigned; the driver's module loader places code and globals and
 * patches relocations.
 */
struct CompiledModule {
    isa::ArchFamily family = isa::ArchFamily::SM5x;
    std::vector<CompiledFunction> functions;
    std::vector<GlobalVar> globals;
    /**
     * Constant bank 1 prototype: module .const data followed by one
     * 8-byte address slot per global (filled by the loader).
     */
    std::vector<uint8_t> bank1;
    /** Source file names referenced by line_info. */
    std::vector<std::string> files;

    const CompiledFunction *findFunction(const std::string &name) const;
};

/** Compilation options. */
struct CompileOptions {
    /**
     * Constant bank holding the module's .const data and global
     * address slots.  Application modules use bank 1; NVBit tool
     * modules are compiled against bank 2, which the driver maps at
     * every launch so tool device functions can reach their state from
     * inside any application kernel.
     */
    uint8_t const_bank = 1;
};

/**
 * Compile PTX-dialect source text for the given architecture family.
 * @throws CompileError on malformed input.
 */
CompiledModule compile(const std::string &source, isa::ArchFamily family,
                       const CompileOptions &opts = {});

} // namespace nvbit::ptx

#endif // NVBIT_PTX_COMPILER_HPP
