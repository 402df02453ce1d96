/**
 * @file
 * String formatting and parsing helpers.
 */

#ifndef OVLSIM_UTIL_STRINGS_HH
#define OVLSIM_UTIL_STRINGS_HH

#include <string>
#include <string_view>
#include <vector>

#include "types.hh"

namespace ovlsim {

/** Split on a delimiter; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char delim);

/** Strip leading/trailing whitespace. */
std::string trim(std::string_view text);

/** True if text begins with the given prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** Lower-case copy (ASCII). */
std::string toLower(std::string_view text);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Human-readable byte count, e.g. "2.5 MiB". */
std::string humanBytes(Bytes bytes);

/** Human-readable duration, e.g. "1.24 ms". */
std::string humanTime(SimTime t);

/** Parse a boolean ("true/false/1/0/yes/no"); throws on garbage. */
bool parseBool(std::string_view text);

} // namespace ovlsim

#endif // OVLSIM_UTIL_STRINGS_HH
