#include <algorithm>
#include <numeric>
#include <tuple>

#include <pthread.h>
#include <sched.h>

#include "bench.h"

namespace perfbench {

Zipf::Zipf(uint64_t items, double theta) : items_(items), theta_(theta)
{
    zetan_ = 0;
    for (uint64_t i = 1; i <= items_; ++i)
        zetan_ += 1.0 / std::pow(double(i), theta_);
    double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / double(items_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    half_pow_ = 1.0 + std::pow(0.5, theta_);
}

uint64_t
Zipf::next(Rng &rng) const
{
    double u = rng.unit();
    double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < half_pow_)
        return 1;
    return std::min<uint64_t>(
        items_ - 1,
        uint64_t(double(items_) * std::pow(eta_ * u - eta_ + 1.0, alpha_)));
}

RankMap::RankMap(uint64_t items, uint64_t seed)
    : n_(items), shift_(mix64(seed ^ 0x5348494654ULL) % items)
{
    // Keys stay below 2^32, so rank * mult never overflows 64 bits.
    mult_ = mix64(seed ^ 0x4d554c54ULL) % items;
    while (std::gcd(mult_, n_) != 1)
        ++mult_;
    // Inverse of mult mod n by the extended Euclidean algorithm.
    int64_t t = 0, new_t = 1;
    int64_t r = int64_t(n_), new_r = int64_t(mult_);
    while (new_r != 0) {
        int64_t q = r / new_r;
        std::tie(t, new_t) = std::make_pair(new_t, t - q * new_t);
        std::tie(r, new_r) = std::make_pair(new_r, r - q * new_r);
    }
    inv_ = uint64_t(t < 0 ? t + int64_t(n_) : t);
}

void
OpSamples::append(const OpSamples &o)
{
    for (unsigned i = 0; i < kNumOps; ++i)
        ns[i].insert(ns[i].end(), o.ns[i].begin(), o.ns[i].end());
}

double
quantileUs(std::vector<uint32_t> &v, double q)
{
    if (v.empty())
        return 0;
    size_t k = std::min(v.size() - 1, size_t(q * double(v.size())));
    std::nth_element(v.begin(), v.begin() + ptrdiff_t(k), v.end());
    return double(v[k]) / 1e3;
}

namespace {

const char *const kCtlNames[] = {
    "stats.kv.gets",
    "stats.kv.hits",
    "stats.kv.rebuilt_records",
    "stats.tx.commits",
    "stats.tx.aborts",
    "stats.tx.ops_alloc",
    "stats.tx.ops_free",
    "stats.tx.ops_write",
    "stats.wal.commits",
    "stats.alloc.small",
    "stats.tcache.hit",
    "stats.alloc.large",
    "stats.free.large",
    "stats.fastpath.reserve_hits",
    "stats.fastpath.reserve_misses",
    "stats.fastpath.cas_retries",
    "stats.fastpath.region_steals",
    "stats.fastpath.locked_fallbacks",
    "stats.slab.refills",
    "stats.slab.morphs",
    "stats.log.appends",
    "stats.log.fast_gc",
    "stats.log.slow_gc",
    "stats.log.entries_copied",
    "stats.log.gc_ns",
    "stats.flush.total",
    "stats.flush.fences",
    "stats.flush.reflush",
    "stats.flush.sequential",
    "stats.flush.xpline_hit",
    "stats.maintenance.slices",
    "stats.maintenance.wakes",
    "stats.maintenance.deferred",
    "stats.maintenance.virtual_ns",
    "stats.maintenance.gc_virtual_ns",
    "stats.recovery.virtual_ns",
    "stats.recovery.wal_completions",
    "stats.heap.committed_bytes",
    "stats.heap.peak_committed_bytes",
};

} // namespace

Counters
readCounters(nvalloc::NvAlloc &heap)
{
    Counters c;
    // Pausing waits out an in-flight maintenance slice, so the large
    // allocator's plain stats are quiescent while read.
    heap.maintenanceControl("pause");
    for (const char *n : kCtlNames) {
        uint64_t v = 0;
        if (heap.ctlRead(n, &v) != nvalloc::NvStatus::Ok)
            v = 0; // name absent in this heap's shape (e.g. no KV)
        c[n + 6] = double(v); // drop the "stats." prefix
    }
    const auto &ls = heap.large().stats();
    c["large.splits"] = double(ls.splits);
    c["large.coalesces"] = double(ls.coalesces);
    c["large.demotions"] = double(ls.demotions);
    c["large.evictions"] = double(ls.evictions);
    heap.maintenanceControl("resume");
    return c;
}

Counters
delta(const Counters &after, const Counters &before)
{
    Counters d;
    for (const auto &[k, v] : after) {
        auto it = before.find(k);
        d[k] = v - (it == before.end() ? 0 : it->second);
    }
    return d;
}

void
pinToCpu(unsigned i)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return;
    unsigned n = unsigned(CPU_COUNT(&allowed));
    if (n < kClients)
        return; // too few CPUs to give each client its own
    for (unsigned cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || seen++ != i)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        return;
    }
}

bool
isKvWorkload(const std::string &w)
{
    return w == "kv_read_mostly" || w == "kv_update_heavy";
}

bool
isKnownWorkload(const std::string &w)
{
    return isKvWorkload(w) || w == "alloc_churn";
}

} // namespace perfbench
