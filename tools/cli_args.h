/**
 * @file
 * Strict numeric flag values for the command-line tools.
 *
 * strtoul() with a null end pointer reads "abc" as 0 and "12x" as 12,
 * so a typo silently becomes a different run. Every numeric flag of
 * nvalloc_stat, nvalloc_fsck and nvalloc_chaos goes through
 * parseCount() instead, and a false return is a usage error (exit 2).
 */

#ifndef NVALLOC_TOOLS_CLI_ARGS_H
#define NVALLOC_TOOLS_CLI_ARGS_H

#include <cctype>
#include <cerrno>
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

} // namespace nvalloc

#endif // NVALLOC_TOOLS_CLI_ARGS_H
