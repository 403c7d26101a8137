/**
 * @file
 * JSON string quoting shared by every obs export.
 */
#ifndef NVBIT_OBS_JSON_HPP
#define NVBIT_OBS_JSON_HPP

#include <cstdio>
#include <string>
#include <string_view>

namespace nvbit::obs {

/** @p s as a JSON string literal, quotes included. */
inline std::string
jsonQuote(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace nvbit::obs

#endif // NVBIT_OBS_JSON_HPP
