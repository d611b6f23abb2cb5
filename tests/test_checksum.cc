/**
 * @file
 * Tests of the CRC-32C used by every trusted on-media structure
 * (common/checksum.h):
 *
 *  - RFC 3720 (iSCSI) known answers;
 *  - the dispatched crc32() agrees with the portable table loop at
 *    every length and start alignment the 8-byte fast path can split
 *    differently, and on a 16 KB KV-record-sized buffer;
 *  - the metadata checksum helpers produce pinned values on fixed
 *    inputs. The constants were computed with the table-driven
 *    implementation, so a change to the checksum code that moved any
 *    stored CRC (and with it the on-media format) fails here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "nvalloc/layout.h"

namespace nvalloc {
namespace {

TEST(Checksum, Rfc3720KnownAnswers)
{
    EXPECT_EQ(crc32("123456789", 9), 0xE3069283u);

    std::vector<uint8_t> zeros(32, 0x00), ones(32, 0xff);
    EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc32(ones.data(), ones.size()), 0x62A8AB43u);

    for (const auto *buf : {&zeros, &ones})
        EXPECT_EQ(detail::crc32cPortable(buf->data(), buf->size()),
                  crc32(buf->data(), buf->size()));
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> v(n);
    for (uint8_t &b : v)
        b = uint8_t(rng.next());
    return v;
}

TEST(Checksum, MatchesPortableAtEveryLengthAndOffset)
{
    const auto buf = randomBytes(1100 + 8, 12);
    for (size_t off = 0; off < 8; ++off) {
        for (size_t len = 0; len <= 1100; ++len) {
            ASSERT_EQ(crc32(buf.data() + off, len),
                      detail::crc32cPortable(buf.data() + off, len))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Checksum, MatchesPortableOnKvRecordSizedBuffer)
{
    const size_t len = 16 * 1024 + 11;
    const auto buf = randomBytes(len, 34);
    EXPECT_EQ(crc32(buf.data(), len),
              detail::crc32cPortable(buf.data(), len));
}

TEST(Checksum, PinnedMetadataChecksums)
{
    WalEntry e{};
    e.block_op = 0x12345600 | kWalAlloc;
    e.seq = 42;
    e.where_off = 0x1000;
    e.size = 256;
    e.tx_id = 7;
    e.tx_mark = kWalTxOp;
    EXPECT_EQ(walEntryCrc(e), 0x29394A6Du);

    NvSuperblock sb{};
    sb.magic = 0xdeadbeef;
    sb.version = 3;
    sb.num_arenas = 4;
    sb.stripes = 8;
    sb.consistency = 0;
    sb.log_off = 0x10000;
    sb.log_bytes = 1u << 20;
    sb.wal_off = 0x200000;
    EXPECT_EQ(superblockCrc(sb), 0x96D2E164u);

    EXPECT_EQ(slabGeometryCrc(5, 1000, 8), 0x21B40D65u);

    LogChunk c{};
    c.id = 3;
    c.active = 1;
    c.next = 0x4000;
    EXPECT_EQ(logChunkCrc(c), 0x8A299F5Bu);

    LogHeader h{};
    h.magic = 0x4c4f47;
    h.num_chunks = 9;
    EXPECT_EQ(logHeaderCrc(h), 0x9FDAA109u);
}

} // namespace
} // namespace nvalloc
