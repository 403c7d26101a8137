/**
 * @file
 * The rules for `NVBIT_SIM_*` values: when a variable counts as set,
 * and how an integer parses.  Call sites keep their literal
 * `std::getenv("NVBIT_SIM_...")`: scripts/check_docs.sh matches those
 * against the docs/API.md table.
 */
#ifndef NVBIT_COMMON_ENV_HPP
#define NVBIT_COMMON_ENV_HPP

#include <cstdint>
#include <optional>

namespace nvbit {

/**
 * @p value, a getenv() result, when the variable is set, else nullptr.
 * An empty value means unset, for every variable.
 */
inline const char *
envSet(const char *value)
{
    return value != nullptr && value[0] != '\0' ? value : nullptr;
}

/**
 * Parse @p value, the getenv() result for variable @p name.  Unset
 * (envSet): nullopt, silently.  Otherwise the whole string must be one
 * unsigned integer in base 0 (decimal, `0x` hex, leading-`0` octal)
 * within [@p min, @p max]; anything else is ignored with a warning.
 */
std::optional<uint64_t> parseEnvU64(const char *name, const char *value,
                                    uint64_t min, uint64_t max);

} // namespace nvbit

#endif // NVBIT_COMMON_ENV_HPP
