/**
 * @file
 * Zero-filled byte arrays that cost nothing until they are touched.
 *
 * Device memory and its sanitizer shadow are tens of MiB per simulated
 * GPU, and most runs touch a small fraction of them.  std::calloc
 * serves blocks this large from a fresh anonymous mapping (glibc and
 * the ASan allocator alike), so the kernel maps zero pages on first
 * touch: allocation writes nothing and resident memory follows the
 * bytes actually used.  ThreadSanitizer's calloc clears the block
 * eagerly, so TSan builds still pay the full write.
 */
#ifndef NVBIT_MEM_ZEROED_BYTES_HPP
#define NVBIT_MEM_ZEROED_BYTES_HPP

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/logging.hpp"

namespace nvbit::mem {

struct FreeBytes {
    void operator()(uint8_t *p) const { std::free(p); }
};

using ZeroedBytes = std::unique_ptr<uint8_t[], FreeBytes>;

/** @p bytes zero bytes; panics when the host is out of memory. */
inline ZeroedBytes
allocZeroed(size_t bytes)
{
    ZeroedBytes p(static_cast<uint8_t *>(std::calloc(bytes, 1)));
    NVBIT_ASSERT(p != nullptr, "cannot allocate %zu zeroed bytes", bytes);
    return p;
}

} // namespace nvbit::mem

#endif // NVBIT_MEM_ZEROED_BYTES_HPP
