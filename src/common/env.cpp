#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hpp"

namespace nvbit {

std::optional<uint64_t>
parseEnvU64(const char *name, const char *value, uint64_t min,
            uint64_t max)
{
    if (envSet(value) == nullptr)
        return std::nullopt;
    // strtoull skips leading blanks and accepts a sign, so demand a
    // leading digit; errno catches values past 2^64 - 1.
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value, &end, 0);
    if (std::isdigit(static_cast<unsigned char>(value[0])) &&
        *end == '\0' && errno == 0 && v >= min && v <= max)
        return v;
    if (max == UINT64_MAX)
        warn("ignoring %s=%s (want an integer >= %llu)", name, value,
             static_cast<unsigned long long>(min));
    else
        warn("ignoring %s=%s (want an integer in %llu..%llu)", name,
             value, static_cast<unsigned long long>(min),
             static_cast<unsigned long long>(max));
    return std::nullopt;
}

} // namespace nvbit
