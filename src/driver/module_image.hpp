/**
 * @file
 * Binary module ("cubin") image format.
 *
 * A module image is either:
 *   - a pre-compiled binary produced by serializeModule() — this is
 *     what "closed-source" accelerated libraries ship, carrying only
 *     machine code and the metadata the real driver keeps (register
 *     counts, stack sizes, relocations, optional line tables); or
 *   - PTX text, JIT-compiled by the driver at load time.
 */
#ifndef NVBIT_DRIVER_MODULE_IMAGE_HPP
#define NVBIT_DRIVER_MODULE_IMAGE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "isa/arch.hpp"
#include "ptx/compiler.hpp"

namespace nvbit::cudrv {

/** One function as stored in a loadable module. */
struct FuncImage {
    std::string name;
    bool is_entry = false;
    std::vector<uint8_t> code; ///< encoded machine instructions
    uint32_t num_regs = 0;
    uint32_t frame_bytes = 0;
    uint32_t shared_bytes = 0;
    uint32_t param_bytes = 0;
    std::vector<ptx::ParamInfo> params;
    std::vector<std::string> related;
    std::vector<ptx::CallReloc> relocs;
    std::vector<ptx::LineInfo> line_info;
    bool uses_device_api = false;
};

/** Deserialized (or JIT-produced) module contents, pre-placement. */
struct ModuleData {
    isa::ArchFamily family = isa::ArchFamily::SM5x;
    std::vector<FuncImage> functions;
    std::vector<ptx::GlobalVar> globals;
    std::vector<uint8_t> bank1;
    std::vector<std::string> files;
};

/** Serialize a compiled module into a binary image. */
std::vector<uint8_t> serializeModule(const ptx::CompiledModule &mod);

/** @return true if the buffer starts with the binary-image magic. */
bool isBinaryImage(const void *image, size_t size);

/**
 * Parse a binary image.  @return false on malformed input, including
 * an unknown architecture family and fields placement would trust: a
 * global initialiser longer than its global, a global address slot
 * past the end of bank 1, or a call relocation that does not name a
 * CAL inside its function's code.
 */
bool deserializeModule(const void *image, size_t size, ModuleData &out);

/** Convert an in-memory compiled module without a serialization trip. */
ModuleData fromCompiled(const ptx::CompiledModule &mod);

} // namespace nvbit::cudrv

#endif // NVBIT_DRIVER_MODULE_IMAGE_HPP
