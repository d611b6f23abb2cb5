/**
 * @file
 * Metadata checksums for torn-persist detection.
 *
 * Two flavours, matched to the budget of the structure they protect:
 *
 *  - crc32(): CRC-32C (Castagnoli). Used where a structure has a
 *    dedicated 32-bit field (WAL entries, log chunk headers, slab
 *    headers, the superblock, KV records). Detects any single torn
 *    8-byte word within the covered range. Runs on the SSE4.2 crc32
 *    instruction when the host has it (picked once, at first call)
 *    and on a byte-at-a-time table loop otherwise; both produce the
 *    same value, so stored checksums do not depend on the host.
 *  - xorFold8(): folds a 64-bit word to 8 bits with a mixing multiply
 *    and a nonzero seed. Used for the 8-byte bookkeeping-log entries,
 *    which have no room for a wider code; the seed guarantees a valid
 *    entry is never all-zero, so "never written" (zeroed media) always
 *    fails validation.
 */

#ifndef NVALLOC_COMMON_CHECKSUM_H
#define NVALLOC_COMMON_CHECKSUM_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace nvalloc {

namespace detail {

constexpr std::array<uint32_t, 256>
crc32cTable()
{
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = crc32cTable();

/** CRC-32C, one table lookup per byte: the reference definition, and
 *  the path on hosts without SSE4.2. */
inline uint32_t
crc32cPortable(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t c = 0xffffffffu;
    for (size_t i = 0; i < len; ++i)
        c = kCrc32cTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NVALLOC_CRC32C_HW 1

/** CRC-32C on the SSE4.2 crc32 instruction, 8 bytes per step. Compiled
 *  for SSE4.2 on its own, so the rest of the build keeps the baseline
 *  ISA; callers must check crc32cHwSupported() first. */
__attribute__((target("sse4.2"))) inline uint32_t
crc32cHw(const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t c = 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        c = _mm_crc32_u64(c, w);
    }
    auto c32 = uint32_t(c);
    for (; len > 0; ++p, --len)
        c32 = _mm_crc32_u8(c32, *p);
    return c32 ^ 0xffffffffu;
}

inline bool
crc32cHwSupported()
{
    static const bool ok = [] {
        // The first CRC may come from a static initializer, before
        // libgcc's own constructor has filled in the CPU model.
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return ok;
}
#endif

} // namespace detail

/** CRC-32C of `len` bytes at `data`. */
inline uint32_t
crc32(const void *data, size_t len)
{
#ifdef NVALLOC_CRC32C_HW
    if (detail::crc32cHwSupported())
        return detail::crc32cHw(data, len);
#endif
    return detail::crc32cPortable(data, len);
}

/**
 * Fold a 64-bit value to 8 bits. The multiply diffuses every input bit
 * into the top byte so field-swapped values fold differently; the
 * final xor with 0xA5 makes the fold of 0 nonzero.
 */
constexpr uint8_t
xorFold8(uint64_t v)
{
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 32;
    v ^= v >> 16;
    v ^= v >> 8;
    return uint8_t((v & 0xff) ^ 0xa5);
}

} // namespace nvalloc

#endif // NVALLOC_COMMON_CHECKSUM_H
