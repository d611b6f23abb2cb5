/**
 * @file
 * Tests of the flush latency model against the behaviours §3.1
 * documents: the reflush-distance cost curve (800→500 ns over
 * distances 0-3), sequential-vs-random media costs, XPBuffer hits,
 * classification counters, the eADR mode, and the trace hook; a
 * golden trace pinning every virtual nanosecond and count; every
 * flush's class checked against a reference LRU model at XPBuffer
 * capacities from 0 up; and exact per-thread counter accounting under
 * concurrent flushers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <list>
#include <thread>
#include <vector>

#include "pm/pm_device.h"

namespace nvalloc {
namespace {

class LatencyModelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 28;
        dev_ = std::make_unique<PmDevice>(cfg);
        VClock::reset();
    }

    uint64_t
    flushCost(uint64_t offset)
    {
        uint64_t v0 = VClock::now();
        dev_->flushLine(dev_->base() + offset, TimeKind::FlushMeta);
        return VClock::now() - v0;
    }

    std::unique_ptr<PmDevice> dev_;
};

TEST_F(LatencyModelTest, ReflushDistanceCurveMatchesPaper)
{
    const LatencyParams &p = dev_->model().params();

    // Cycle over K distinct lines; steady-state distance is K-1.
    for (unsigned k = 1; k <= 4; ++k) {
        dev_->model().reset();
        // Warm up the cycle.
        for (unsigned i = 0; i < 2 * k; ++i)
            flushCost((i % k) * 64);
        uint64_t cost = flushCost(((2 * k) % k) * 64) - p.issue;
        EXPECT_EQ(cost, p.reflush_base - p.reflush_step * (k - 1))
            << "distance " << k - 1;
    }
    // Paper numbers: 800 ns at distance 0 down to 500 at distance 3.
    EXPECT_EQ(p.reflush_base, 800u);
    EXPECT_EQ(p.reflush_base - 3 * p.reflush_step, 500u);
}

TEST_F(LatencyModelTest, BeyondWindowIsRegularFlush)
{
    const LatencyParams &p = dev_->model().params();
    // Cycle of 6 distinct lines: distance 5 >= window, no reflush.
    for (unsigned i = 0; i < 18; ++i)
        flushCost((i % 6) * 64);
    auto c = dev_->flushCounts();
    // After the first pass every flush is distance 5: all hits or
    // media, no reflushes beyond warmup.
    EXPECT_LE(c.reflush, 0u + p.reflush_window);
    EXPECT_GT(c.xpline_hit, 8u);
}

TEST_F(LatencyModelTest, SequentialCheaperThanRandom)
{
    const LatencyParams &p = dev_->model().params();
    // Sequential XPLine misses: one line per consecutive XPLine.
    dev_->model().reset();
    uint64_t seq = 0;
    for (unsigned i = 0; i < 200; ++i)
        seq += flushCost(uint64_t(i) * 256);
    // Random far-apart lines.
    dev_->model().reset();
    VClock::reset();
    uint64_t rnd = 0;
    uint64_t x = 99;
    for (unsigned i = 0; i < 200; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        rnd += flushCost((x % (1 << 20)) * 64);
    }
    EXPECT_LT(p.media_seq, p.media_random);
    EXPECT_LT(seq, rnd);
}

TEST_F(LatencyModelTest, XpBufferHitsAreCheap)
{
    const LatencyParams &p = dev_->model().params();
    // 5 lines in one XPLine region cycled: beyond the reflush window
    // but inside the XPBuffer.
    for (unsigned i = 0; i < 40; ++i)
        flushCost((i % 5) * 64);
    uint64_t cost = flushCost((40 % 5) * 64);
    EXPECT_EQ(cost, p.issue + p.xpline_hit);
}

TEST_F(LatencyModelTest, CountersClassifyEveryFlush)
{
    for (unsigned i = 0; i < 100; ++i)
        flushCost((i % 3) * 64); // reflush loop
    for (unsigned i = 0; i < 50; ++i)
        flushCost(uint64_t(1 + i) * 1 << 20); // random misses
    auto c = dev_->flushCounts();
    EXPECT_EQ(c.total, 150u);
    EXPECT_EQ(c.total,
              c.reflush + c.sequential + c.random + c.xpline_hit);
    EXPECT_GE(c.reflush, 95u);
    EXPECT_GE(c.random, 40u);
}

TEST_F(LatencyModelTest, FenceCostAndCount)
{
    uint64_t v0 = VClock::now();
    dev_->fence();
    dev_->fence();
    EXPECT_EQ(VClock::now() - v0, 2 * dev_->model().params().fence);
    EXPECT_EQ(dev_->flushCounts().fences, 2u);
}

TEST_F(LatencyModelTest, EadrRemovesStallsKeepsMediaCosts)
{
    dev_->model().setEadr(true);
    const LatencyParams &p = dev_->model().params();

    // Reflush pattern: free under eADR (write combining). The first
    // touches of fresh lines pay the writeback cost; steady state is
    // free.
    for (unsigned i = 0; i < 4; ++i)
        flushCost((i % 2) * 64);
    uint64_t v0 = VClock::now();
    for (unsigned i = 0; i < 100; ++i)
        flushCost((i % 2) * 64);
    EXPECT_EQ(VClock::now(), v0) << "same-line dirtying is free";

    // Distinct random lines still pay the (small) writeback cost.
    v0 = VClock::now();
    uint64_t x = 7;
    for (unsigned i = 0; i < 100; ++i) {
        x = x * 6364136223846793005ULL + 1;
        flushCost((x % (1 << 20)) * 64);
    }
    uint64_t eadr_cost = VClock::now() - v0;
    EXPECT_GT(eadr_cost, 0u);
    EXPECT_LE(eadr_cost, 100 * p.eadr_random);

    // Fences are free on eADR.
    v0 = VClock::now();
    dev_->fence();
    EXPECT_EQ(VClock::now(), v0);
}

TEST_F(LatencyModelTest, TraceCapturesOffsets)
{
    dev_->model().startTrace(5);
    for (unsigned i = 0; i < 10; ++i)
        flushCost(i * 4096);
    auto trace = dev_->model().stopTrace();
    ASSERT_EQ(trace.size(), 5u) << "cap respected";
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(trace[i], i * 4096);
}

TEST_F(LatencyModelTest, StopWithoutStartIsEmptyNoop)
{
    EXPECT_FALSE(dev_->model().tracing());
    EXPECT_TRUE(dev_->model().stopTrace().empty());
    // Flushes after a stray stop must not be recorded anywhere.
    flushCost(0);
    EXPECT_TRUE(dev_->model().stopTrace().empty());
}

TEST_F(LatencyModelTest, DoubleStopSecondIsEmpty)
{
    dev_->model().startTrace(8);
    flushCost(0);
    flushCost(4096);
    auto first = dev_->model().stopTrace();
    EXPECT_EQ(first.size(), 2u);
    EXPECT_FALSE(dev_->model().tracing());
    EXPECT_TRUE(dev_->model().stopTrace().empty())
        << "second stop returns nothing, not the old buffer";
}

TEST_F(LatencyModelTest, RestartWhileTracingClearsBuffer)
{
    dev_->model().startTrace(8);
    flushCost(0);
    flushCost(64);
    // Restart discards the two buffered offsets and applies the new
    // capacity.
    dev_->model().startTrace(1);
    EXPECT_TRUE(dev_->model().tracing());
    flushCost(8192);
    flushCost(12288); // over the restarted cap; dropped
    auto trace = dev_->model().stopTrace();
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0], 8192u);
}

TEST_F(LatencyModelTest, ResetInvalidatesPerThreadHistory)
{
    // Build up reflush history, reset, and check the next flush of
    // the same line is NOT treated as a reflush.
    for (unsigned i = 0; i < 10; ++i)
        flushCost(0);
    dev_->model().reset();
    flushCost(0);
    auto c = dev_->flushCounts();
    EXPECT_EQ(c.reflush, 0u);
    EXPECT_EQ(c.total, 1u);
}

TEST_F(LatencyModelTest, PersistFlushesEveryCoveredLine)
{
    dev_->model().reset();
    dev_->persist(dev_->base() + 60, 10, TimeKind::FlushData);
    EXPECT_EQ(dev_->flushCounts().total, 2u) << "straddles two lines";
    dev_->model().reset();
    dev_->persist(dev_->base() + 4096, 256, TimeKind::FlushData);
    EXPECT_EQ(dev_->flushCounts().total, 4u);
}


/** What one golden trace run leaves behind: this thread's per-kind
 *  virtual time and the model's flush-class counters. */
struct GoldenResult
{
    std::array<uint64_t, kNumTimeKinds> vns;
    FlushClassCounts counts;
};

/**
 * A fixed, seeded single-thread trace that mixes every flush class:
 * reflush loops over a few hot lines, a sequential XPLine cursor,
 * random far-apart lines, neighbouring lines of recently touched
 * XPLines, multi-line persists of random length, and fences. The
 * flush kinds rotate so every TimeKind bucket gets traffic.
 */
GoldenResult
runGoldenTrace(bool eadr, unsigned xpbuf_lines)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 28;
    cfg.latency.xpbuf_lines = xpbuf_lines;
    PmDevice dev(cfg);
    if (eadr)
        dev.model().setEadr(true);
    VClock::reset();

    const TimeKind kinds[] = {TimeKind::FlushMeta, TimeKind::FlushWal,
                              TimeKind::FlushLog, TimeKind::FlushData};
    char *base = dev.base();
    uint64_t x = 0x2545f4914f6cdd1dULL;
    auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    uint64_t seq = uint64_t{1} << 20;
    uint64_t recent_xpline = 0;
    for (unsigned step = 0; step < 6000; ++step) {
        uint64_t r = next();
        TimeKind kind = kinds[step % 4];
        switch (r % 6) {
        case 0: // reflush: a hot set of three lines
            dev.flushLine(base + ((r >> 8) % 3) * 64, kind);
            break;
        case 1: // sequential: the next XPLine
            dev.flushLine(base + seq, kind);
            recent_xpline = seq;
            seq += 256;
            break;
        case 2: { // random line anywhere in the first 128 MiB
            uint64_t off = ((r >> 8) % (uint64_t{1} << 21)) * 64;
            dev.flushLine(base + off, kind);
            recent_xpline = off & ~uint64_t{255};
            break;
        }
        case 3: // another line of a recently touched XPLine
            dev.flushLine(base + recent_xpline + ((r >> 8) % 4) * 64,
                          kind);
            break;
        case 4: { // multi-line persist of 1-600 bytes
            uint64_t off = (uint64_t{2} << 20) + ((r >> 8) % 65536);
            dev.persist(base + off, 1 + (r >> 24) % 600, kind);
            break;
        }
        default:
            dev.fence();
            break;
        }
    }
    return GoldenResult{VClock::snapshot(), dev.flushCounts()};
}

/** Per-TimeKind totals and counters of runGoldenTrace, computed with
 *  the shared-counter implementation the per-thread shards replaced.
 *  LockWait stays zero: a single thread never queues on the media. */
struct GoldenCase
{
    bool eadr;
    unsigned xpbuf_lines;
    std::array<uint64_t, kNumTimeKinds> vns;
    FlushClassCounts counts;
};

const GoldenCase kGolden[] = {
    {false, 64, {404790, 405140, 404450, 398710, 27750, 0, 0, 0, 0},
     {9631, 430, 1275, 2679, 5247, 925}},
    {false, 4, {439210, 433420, 438180, 428790, 27750, 0, 0, 0, 0},
     {9631, 430, 1412, 3316, 4473, 925}},
    {true, 64, {53070, 56585, 53810, 55385, 0, 0, 0, 0, 0},
     {9631, 430, 1275, 2679, 5247, 925}},
    {true, 4, {63320, 65125, 63835, 64345, 0, 0, 0, 0, 0},
     {9631, 430, 1412, 3316, 4473, 925}},
};

TEST(LatencyModelGolden, VirtualTimeAndCountsArePinned)
{
    for (const GoldenCase &g : kGolden) {
        SCOPED_TRACE(testing::Message() << "eadr=" << g.eadr
                                        << " xpbuf_lines="
                                        << g.xpbuf_lines);
        GoldenResult r = runGoldenTrace(g.eadr, g.xpbuf_lines);
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            EXPECT_EQ(r.vns[k], g.vns[k]) << "TimeKind " << k;
        EXPECT_EQ(r.counts.total, g.counts.total);
        EXPECT_EQ(r.counts.reflush, g.counts.reflush);
        EXPECT_EQ(r.counts.sequential, g.counts.sequential);
        EXPECT_EQ(r.counts.random, g.counts.random);
        EXPECT_EQ(r.counts.xpline_hit, g.counts.xpline_hit);
        EXPECT_EQ(r.counts.fences, g.counts.fences);
    }
}

/**
 * The model's classification rules over plain std::list histories:
 * an 8-entry MRU of 64 B lines (distance < 4 is a reflush) and an
 * exact LRU of `cap` XPLines; an XPLine miss is sequential when it is
 * the last missed XPLine or its successor.
 */
class ReferenceClassifier
{
  public:
    explicit ReferenceClassifier(unsigned cap) : cap_(cap) {}

    FlushClass
    flush(uint64_t line)
    {
        auto it = std::find(lines_.begin(), lines_.end(), line);
        size_t distance = SIZE_MAX; // a fresh line is never a reflush
        if (it != lines_.end()) {
            distance = std::distance(lines_.begin(), it);
            lines_.erase(it);
        }
        lines_.push_front(line);
        if (lines_.size() > 8)
            lines_.pop_back();
        if (distance < 4)
            return FlushClass::Reflush;

        uint64_t xpline = line & ~uint64_t{255};
        auto xp = std::find(xplines_.begin(), xplines_.end(), xpline);
        if (xp != xplines_.end()) {
            xplines_.erase(xp);
            xplines_.push_back(xpline);
            return FlushClass::XpLineHit;
        }
        if (cap_ != 0) {
            if (xplines_.size() == cap_)
                xplines_.pop_front();
            xplines_.push_back(xpline);
        }
        bool sequential =
            xpline == last_miss_ || xpline == last_miss_ + 256;
        last_miss_ = xpline;
        return sequential ? FlushClass::Sequential : FlushClass::Random;
    }

  private:
    unsigned cap_;
    std::list<uint64_t> lines_;   //!< most recent first
    std::list<uint64_t> xplines_; //!< oldest first
    uint64_t last_miss_ = ~uint64_t{0};
};

/** The class one flush added to the counters between two reads. */
FlushClass
classAdded(const FlushClassCounts &before, const FlushClassCounts &after)
{
    EXPECT_EQ(after.total, before.total + 1);
    if (after.reflush != before.reflush)
        return FlushClass::Reflush;
    if (after.sequential != before.sequential)
        return FlushClass::Sequential;
    if (after.random != before.random)
        return FlushClass::Random;
    if (after.xpline_hit != before.xpline_hit)
        return FlushClass::XpLineHit;
    return FlushClass::NumClasses;
}

TEST(LatencyModelXpBuffer, EveryFlushMatchesReferenceLru)
{
    const unsigned kCaps[] = {0, 1, 2, 3, 4, 5, 63, 64, 65, 128};
    for (bool eadr : {false, true}) {
        for (unsigned cap : kCaps) {
            SCOPED_TRACE(testing::Message()
                         << "eadr=" << eadr << " xpbuf_lines=" << cap);
            PmDeviceConfig cfg;
            cfg.size = size_t{1} << 28;
            cfg.latency.xpbuf_lines = cap;
            PmDevice dev(cfg);
            if (eadr)
                dev.model().setEadr(true);
            ReferenceClassifier ref(cap);

            uint64_t x = 0x9e3779b97f4a7c15ULL ^ (uint64_t{cap} << 32);
            auto next = [&x]() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                return x;
            };
            // A pool of XPLines a little larger than the buffer, so
            // re-touches land on both sides of the eviction boundary.
            const uint64_t pool = 2 * uint64_t{cap} + 3;
            uint64_t seq = uint64_t{64} << 20;
            std::vector<uint64_t> recent(16, 0);
            FlushClassCounts before = dev.flushCounts();
            for (unsigned step = 0; step < 20000; ++step) {
                uint64_t r = next();
                uint64_t line;
                switch (r % 5) {
                case 0: // hot set of three lines
                    line = ((r >> 8) % 3) * 64;
                    break;
                case 1: // sequential XPLine cursor
                    line = seq;
                    seq += 256;
                    break;
                case 2: // random line in the first 128 MiB
                    line = ((r >> 8) % (uint64_t{1} << 21)) * 64;
                    break;
                case 3: // any line of an XPLine from the pool
                    line = (uint64_t{32} << 20) +
                           ((r >> 8) % pool) * 256 + ((r >> 40) % 4) * 64;
                    break;
                default: // re-touch a recently flushed XPLine
                    line = recent[(r >> 8) % recent.size()] +
                           ((r >> 40) % 4) * 64;
                    break;
                }
                recent[step % recent.size()] = line & ~uint64_t{255};
                dev.flushLine(dev.base() + line, TimeKind::FlushMeta);
                FlushClassCounts after = dev.flushCounts();
                FlushClass want = ref.flush(line);
                FlushClass got = classAdded(before, after);
                if (got != want) {
                    ADD_FAILURE() << "step " << step << " line " << line
                                  << ": model " << flushClassName(got)
                                  << ", reference "
                                  << flushClassName(want);
                    break;
                }
                before = after;
            }
        }
    }
}

/** Each of `threads` threads flushes its own line `n` times with a
 *  fence after every flush: per thread one random miss, then n - 1
 *  reflushes. */
void
flushFromThreads(PmDevice &dev, unsigned threads, unsigned n)
{
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&dev, t, n] {
            char *line = dev.base() + (uint64_t{t} << 20);
            for (unsigned i = 0; i < n; ++i) {
                dev.flushLine(line, TimeKind::FlushMeta);
                dev.fence();
            }
        });
    }
    // Read the shards while their owners write them.
    uint64_t last = 0;
    for (unsigned i = 0; i < 100; ++i) {
        uint64_t total = dev.flushCounts().total;
        EXPECT_GE(total, last);
        last = total;
        std::this_thread::yield();
    }
    for (auto &th : pool)
        th.join();
}

void
expectThreadCounts(const FlushClassCounts &c, unsigned threads, unsigned n)
{
    EXPECT_EQ(c.total, uint64_t{threads} * n);
    EXPECT_EQ(c.fences, uint64_t{threads} * n);
    EXPECT_EQ(c.reflush, uint64_t{threads} * (n - 1));
    EXPECT_EQ(c.random, threads);
    EXPECT_EQ(c.sequential, 0u);
    EXPECT_EQ(c.xpline_hit, 0u);
}

TEST(LatencyModelCounters, ExactAcrossThreadsAndTheirExit)
{
    constexpr unsigned kThreads = 4, kN = 5000;
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 24;
    PmDevice dev(cfg);

    // Joined threads have exited; their counts stay with the model.
    flushFromThreads(dev, kThreads, kN);
    expectThreadCounts(dev.flushCounts(), kThreads, kN);

    dev.model().reset();
    FlushClassCounts zero = dev.flushCounts();
    EXPECT_EQ(zero.total, 0u);
    EXPECT_EQ(zero.reflush + zero.sequential + zero.random +
                  zero.xpline_hit + zero.fences,
              0u);

    // Counting restarts from zero, with fresh per-thread history.
    flushFromThreads(dev, kThreads, kN);
    expectThreadCounts(dev.flushCounts(), kThreads, kN);
}

TEST(LatencyModelCounters, RecreatedDeviceInheritsNothing)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 24;
    auto dev = std::make_unique<PmDevice>(cfg);
    for (unsigned i = 0; i < 10; ++i) {
        dev->flushLine(dev->base(), TimeKind::FlushMeta);
        dev->fence();
    }
    EXPECT_EQ(dev->flushCounts().reflush, 9u);

    // Likely reuses the freed address and this thread's cached state
    // slot; neither the counts nor the reflush history may carry over.
    dev.reset();
    dev = std::make_unique<PmDevice>(cfg);
    FlushClassCounts c = dev->flushCounts();
    EXPECT_EQ(c.total, 0u);
    EXPECT_EQ(c.fences, 0u);
    dev->flushLine(dev->base(), TimeKind::FlushMeta);
    c = dev->flushCounts();
    EXPECT_EQ(c.total, 1u);
    EXPECT_EQ(c.reflush, 0u) << "history leaked from the old device";
    EXPECT_EQ(c.random, 1u);
}

} // namespace
} // namespace nvalloc
