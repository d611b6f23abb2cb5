/**
 * @file
 * stats.kv.* counter block (DESIGN.md §13).
 *
 * The KV store (src/kv/) sits *above* the allocator, but its health is
 * operationally part of the heap: a tenant's corrupt-record count or
 * rejected-op rate is what an operator greps for when a heap degrades.
 * So the counters live in a struct the KvStore owns and *attaches* to
 * its backing NvAlloc (NvAlloc::attachKvStats); the ctl registry reads
 * through an atomic pointer and reports zeros while no store is
 * attached. This keeps the layering acyclic — nvalloc/ never depends
 * on kv/, it only exposes the mount point.
 *
 * Where each counter lives: the op counters and the record/byte gauges
 * are split into one KvCounters block per bucket stripe of the store
 * (it sits next to the stripe's lock, on lines no other stripe writes),
 * bumped by the ops that hash to that stripe; the ctl readers sum the
 * stripes (KvStats::sum). Only the open-time figures (buckets,
 * rebuilds, rebuilt_records) are store-wide. All fields are relaxed
 * atomics, read lock-free by nvalloc_stat / ctlRead; a sum taken while
 * ops run is a racy snapshot, exact once they have returned.
 */

#ifndef NVALLOC_NVALLOC_KV_STATS_H
#define NVALLOC_NVALLOC_KV_STATS_H

#include <atomic>
#include <cstdint>
#include <vector>

namespace nvalloc {

/** One bucket stripe's share of the stats.kv.* op counters. */
struct KvCounters
{
    // Mutation traffic (each counted once per *successful* op).
    std::atomic<uint64_t> inserts{0}; //!< puts creating a new key
    std::atomic<uint64_t> updates{0}; //!< puts replacing a value
    std::atomic<uint64_t> erases{0};
    std::atomic<uint64_t> rmws{0};

    // Read traffic.
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> scanned_records{0};

    // Detection / rejection paths.
    std::atomic<uint64_t> corrupt_records{0};    //!< crc or header failures
    std::atomic<uint64_t> rejected_unhealthy{0}; //!< ops refused on a degraded tenant
    std::atomic<uint64_t> rejected_quota{0};     //!< inserts refused by the tenant quota
    std::atomic<uint64_t> failed_allocs{0};      //!< other txAlloc failures

    // Gauges: this stripe's records (rebuilt on open, maintained under
    // the stripe lock). Summed over the stripes they are the store's.
    std::atomic<uint64_t> records{0};
    std::atomic<uint64_t> key_bytes{0};
    std::atomic<uint64_t> value_bytes{0};
};

/** The block a KvStore attaches to its heap: its stripes' counters
 *  and the store-wide figures set at open. */
struct KvStats
{
    /** Every stripe's counters, set before the block attaches. */
    std::vector<const KvCounters *> stripes;

    std::atomic<uint64_t> buckets{0};
    std::atomic<uint64_t> rebuilds{0};        //!< open-time index rebuilds
    std::atomic<uint64_t> rebuilt_records{0}; //!< records walked by rebuilds

    /** The store's volatile per-bucket chain lengths (`buckets`
     *  entries), set before the block attaches. Read by maxChain(). */
    const std::atomic<uint32_t> *chain_len = nullptr;

    /** A KvCounters field summed over the stripes. */
    uint64_t
    sum(std::atomic<uint64_t> KvCounters::*field) const
    {
        uint64_t n = 0;
        for (const KvCounters *c : stripes)
            n += (c->*field).load(std::memory_order_relaxed);
        return n;
    }

    /** Longest current chain, scanned at read time so the
     *  stats.kv.max_chain gauge adds no store to the op paths (racy
     *  snapshot: chains may change during the scan). */
    uint64_t
    maxChain() const
    {
        uint64_t n = chain_len ? buckets.load(std::memory_order_relaxed) : 0;
        uint64_t m = 0;
        for (uint64_t b = 0; b < n; ++b) {
            uint64_t len = chain_len[b].load(std::memory_order_relaxed);
            m = len > m ? len : m;
        }
        return m;
    }
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_KV_STATS_H
