/**
 * @file
 * The one rule for integer `NVBIT_SIM_*` values.  Call sites keep their
 * literal `std::getenv("NVBIT_SIM_...")`: scripts/check_docs.sh matches
 * those against the docs/API.md table.
 */
#ifndef NVBIT_COMMON_ENV_HPP
#define NVBIT_COMMON_ENV_HPP

#include <cstdint>
#include <optional>

namespace nvbit {

/**
 * Parse @p value, the getenv() result for variable @p name.  Unset or
 * empty: nullopt, silently.  Otherwise the whole string must be one
 * unsigned integer in base 0 (decimal, `0x` hex, leading-`0` octal)
 * within [@p min, @p max]; anything else is ignored with a warning.
 */
std::optional<uint64_t> parseEnvU64(const char *name, const char *value,
                                    uint64_t min, uint64_t max);

} // namespace nvbit

#endif // NVBIT_COMMON_ENV_HPP
