/**
 * @file
 * §3.1 microbenchmark (google-benchmark): the latency model's
 * reflush-distance curve and flush-class costs.
 *
 * The paper: "the latency of cache line reflushes is decreased from
 * 800 ns to 500 ns when reflush distance is increased from 0 to 3",
 * and reflush latency is 3x/7x the random/sequential write latency.
 * These benchmarks measure the *virtual* cost the model charges per
 * flush for each access pattern and report it as the `vns_per_flush`
 * counter. BM_FlushFenceHostCost and BM_XpBufferMissHostCost measure
 * the other clock: the host cost of the model code itself, per
 * flush+fence as threads are added, and per flush that misses a full
 * XPBuffer.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "pm/pm_device.h"

using namespace nvalloc;

namespace {

/** Charge `n` flushes with a given stride pattern; report virtual ns
 *  per flush. */
void
runPattern(benchmark::State &state, unsigned distinct_lines,
           uint64_t stride)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 26;
    PmDevice dev(cfg);
    char *base = dev.base();

    uint64_t flushes = 0;
    VClock::reset();
    uint64_t v0 = VClock::now();
    for (auto _ : state) {
        for (unsigned i = 0; i < 256; ++i) {
            uint64_t line = (uint64_t(i) % distinct_lines) * stride;
            dev.flushLine(base + line, TimeKind::FlushMeta);
            ++flushes;
        }
    }
    state.counters["vns_per_flush"] =
        double(VClock::now() - v0) / double(flushes);
}

void
BM_ReflushDistance(benchmark::State &state)
{
    // Cycling over K distinct lines gives every flush a reflush
    // distance of K-1.
    runPattern(state, unsigned(state.range(0)), 64);
}

void
BM_SequentialFlush(benchmark::State &state)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 30;
    PmDevice dev(cfg);
    char *base = dev.base();
    uint64_t line = 0, flushes = 0;
    VClock::reset();
    uint64_t v0 = VClock::now();
    for (auto _ : state) {
        for (unsigned i = 0; i < 256; ++i) {
            dev.flushLine(base + line, TimeKind::FlushMeta);
            line += 256; // fresh XPLine each flush, sequential
            ++flushes;
        }
    }
    state.counters["vns_per_flush"] =
        double(VClock::now() - v0) / double(flushes);
}

void
BM_RandomFlush(benchmark::State &state)
{
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 30;
    PmDevice dev(cfg);
    char *base = dev.base();
    uint64_t x = 88172645463325252ULL, flushes = 0;
    VClock::reset();
    uint64_t v0 = VClock::now();
    for (auto _ : state) {
        for (unsigned i = 0; i < 256; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            dev.flushLine(base + (x % (cfg.size / 64)) * 64,
                          TimeKind::FlushMeta);
            ++flushes;
        }
    }
    state.counters["vns_per_flush"] =
        double(VClock::now() - v0) / double(flushes);
}

/**
 * Host cost of one flush plus one fence with 1, 2 and 4 threads on one
 * device. Each thread cycles over 64 lines of its own 16 KB span: past
 * the reflush window and inside the XPBuffer, so after warmup every
 * flush is an XPLine hit and never touches the shared media server.
 * Any growth of the per-iteration CPU time with the thread count is
 * then contention inside the model. An iteration is one flush+fence,
 * so the CPU column (summed over threads, divided by all iterations)
 * is host ns per flush+fence per thread.
 */
void
BM_FlushFenceHostCost(benchmark::State &state)
{
    static std::unique_ptr<PmDevice> dev;
    if (state.thread_index() == 0) {
        PmDeviceConfig cfg;
        cfg.size = size_t{1} << 26;
        dev = std::make_unique<PmDevice>(cfg);
    }
    const uint64_t span = uint64_t(state.thread_index()) << 20;
    uint64_t i = 0, flushes = 0;
    VClock::reset();
    for (auto _ : state) {
        // The start barrier orders thread 0's setup before this read.
        PmDevice &d = *dev;
        d.flushLine(d.base() + span + (i++ % 64) * 64, TimeKind::FlushMeta);
        d.fence();
        ++flushes;
    }
    state.counters["vns_per_flush"] = benchmark::Counter(
        double(VClock::now()) / double(flushes),
        benchmark::Counter::kAvgThreads);
    // The stop barrier has every thread out of the loop by now.
    if (state.thread_index() == 0)
        dev.reset();
}

/**
 * Host cost of a flush that misses a full XPBuffer. The flushes walk
 * 4096 distinct XPLines in a scattered full-period order, so each
 * XPLine comes back only after 4095 others, far past the buffer's 64:
 * after the first 64 flushes every touch is a miss that evicts the
 * oldest entry. The CPU column is host ns per flush;
 * `xpline_hit_ratio` confirms no flush hit.
 */
void
BM_XpBufferMissHostCost(benchmark::State &state)
{
    constexpr uint64_t kXpLines = 4096;
    PmDeviceConfig cfg;
    cfg.size = size_t{1} << 26;
    PmDevice dev(cfg);
    char *base = dev.base();
    uint64_t i = 0, flushes = 0;
    VClock::reset();
    FlushClassCounts before = dev.flushCounts();
    for (auto _ : state) {
        // An odd stride is a full cycle modulo a power of two.
        i = (i + 2654435761u) & (kXpLines - 1);
        dev.flushLine(base + i * 256 + (i >> 3) % 4 * 64,
                      TimeKind::FlushMeta);
        ++flushes;
    }
    FlushClassCounts after = dev.flushCounts();
    state.counters["xpline_hit_ratio"] =
        double(after.xpline_hit - before.xpline_hit) / double(flushes);
    state.counters["vns_per_flush"] =
        double(VClock::now()) / double(flushes);
}

} // namespace

BENCHMARK(BM_FlushFenceHostCost)->Threads(1)->Threads(2)->Threads(4);
BENCHMARK(BM_XpBufferMissHostCost);
BENCHMARK(BM_ReflushDistance)->DenseRange(1, 6)->Arg(8)->Arg(16);
BENCHMARK(BM_SequentialFlush);
BENCHMARK(BM_RandomFlush);

BENCHMARK_MAIN();
