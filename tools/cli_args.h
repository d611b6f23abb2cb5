/**
 * @file
 * Strict numeric flag values for the command-line tools.
 *
 * strtoul() with a null end pointer reads "abc" as 0 and "12x" as 12,
 * so a typo silently becomes a different run. Every numeric flag of
 * nvalloc_stat, nvalloc_fsck, nvalloc_chaos and nvalloc_ycsb goes
 * through parseCount() or parseFinite() instead, and a false return is
 * a usage error (exit 2).
 */

#ifndef NVALLOC_TOOLS_CLI_ARGS_H
#define NVALLOC_TOOLS_CLI_ARGS_H

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace nvalloc {

/**
 * Parse `s` (decimal, or 0x-prefixed hex) into `out`. Rejects a
 * missing or empty value, a leading sign or space, trailing junk and
 * a value that does not fit T. `out` is untouched on failure.
 */
template <typename T>
bool
parseCount(const char *s, T &out)
{
    if (!s || !std::isdigit(static_cast<unsigned char>(*s)))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 0);
    if (errno == ERANGE || *end != '\0' ||
        v > std::numeric_limits<T>::max())
        return false;
    out = T(v);
    return true;
}

/**
 * Parse `s` as a finite double into `out`. Rejects a missing or empty
 * value, leading space, trailing junk, inf, nan and out-of-range
 * magnitudes. `out` is untouched on failure.
 */
inline bool
parseFinite(const char *s, double &out)
{
    if (!s || *s == '\0' || std::isspace(static_cast<unsigned char>(*s)))
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (errno == ERANGE || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace nvalloc

#endif // NVALLOC_TOOLS_CLI_ARGS_H
