/**
 * @file
 * google-benchmark microbenchmarks of the allocators' hot paths:
 * single-threaded malloc/free pairs for one small and one large size,
 * reporting both real wall time (code efficiency) and modeled virtual
 * ns per operation (the figure-level metric). BM_LargeAged repeats
 * the large pair on a heap aged into many partial retained extents,
 * the state a long churn leaves behind for the decay tick to walk.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "workloads/harness.h"

using namespace nvalloc;

namespace {

void
allocFreePairs(benchmark::State &state, AllocKind kind, size_t size)
{
    auto dev = makeBenchDevice();
    auto alloc = makeAllocator(kind, *dev, {});
    AllocThread *t = alloc->threadAttach();
    VClock::reset();
    uint64_t v0 = VClock::now();
    uint64_t ops = 0;
    for (auto _ : state) {
        uint64_t off = alloc->allocTo(t, size, nullptr);
        benchmark::DoNotOptimize(off);
        alloc->freeFrom(t, off, nullptr);
        ops += 2;
    }
    alloc->threadDetach(t);
    state.counters["vns_per_op"] =
        double(VClock::now() - v0) / double(ops);
}

/**
 * 128 KB alloc/free pairs after aging: 2048 extents of 16-128 KB are
 * allocated and every other one is freed, leaving 1024 holes between
 * live neighbours; a virtual second later (20 decay windows) the
 * first pair's decay tick demotes them all to retained. No hole spans
 * a region, so none can ever be evicted.
 */
void
BM_LargeAged(benchmark::State &state)
{
    auto dev = makeBenchDevice();
    auto alloc = makeAllocator(AllocKind(state.range(0)), *dev, {});
    AllocThread *t = alloc->threadAttach();
    std::vector<uint64_t> extents;
    for (unsigned i = 0; i < 2048; ++i)
        extents.push_back(
            alloc->allocTo(t, (1 + i % 8) * 16 * 1024, nullptr));
    for (size_t i = 0; i < extents.size(); i += 2)
        alloc->freeFrom(t, extents[i], nullptr);
    VClock::reset();
    VClock::advance(1'000'000'000, TimeKind::Other);
    uint64_t v0 = VClock::now();
    uint64_t ops = 0;
    for (auto _ : state) {
        uint64_t off = alloc->allocTo(t, 128 * 1024, nullptr);
        benchmark::DoNotOptimize(off);
        alloc->freeFrom(t, off, nullptr);
        ops += 2;
    }
    for (size_t i = 1; i < extents.size(); i += 2)
        alloc->freeFrom(t, extents[i], nullptr);
    alloc->threadDetach(t);
    state.counters["vns_per_op"] =
        double(VClock::now() - v0) / double(ops);
}

void BM_Small(benchmark::State &s)
{
    allocFreePairs(s, AllocKind(s.range(0)), 64);
}

void BM_Large(benchmark::State &s)
{
    allocFreePairs(s, AllocKind(s.range(0)), 128 * 1024);
}

} // namespace

BENCHMARK(BM_Small)
    ->Arg(int(AllocKind::Pmdk))
    ->Arg(int(AllocKind::NvmMalloc))
    ->Arg(int(AllocKind::PAllocator))
    ->Arg(int(AllocKind::Makalu))
    ->Arg(int(AllocKind::Ralloc))
    ->Arg(int(AllocKind::NvAllocLog))
    ->Arg(int(AllocKind::NvAllocGc));

BENCHMARK(BM_Large)
    ->Arg(int(AllocKind::Pmdk))
    ->Arg(int(AllocKind::NvmMalloc))
    ->Arg(int(AllocKind::PAllocator))
    ->Arg(int(AllocKind::Makalu))
    ->Arg(int(AllocKind::NvAllocLog));

BENCHMARK(BM_LargeAged)->Arg(int(AllocKind::NvAllocLog));

BENCHMARK_MAIN();
