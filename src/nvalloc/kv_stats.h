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
 * All fields are relaxed atomics: bumped on KV op paths (under the
 * store's bucket stripe locks or not at all), read lock-free by
 * nvalloc_stat / ctlRead.
 */

#ifndef NVALLOC_NVALLOC_KV_STATS_H
#define NVALLOC_NVALLOC_KV_STATS_H

#include <atomic>
#include <cstdint>

namespace nvalloc {

struct KvStats
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

    // Gauges (rebuilt on open, maintained under stripe locks).
    std::atomic<uint64_t> records{0};
    std::atomic<uint64_t> key_bytes{0};
    std::atomic<uint64_t> value_bytes{0};
    std::atomic<uint64_t> buckets{0};

    // Recovery.
    std::atomic<uint64_t> rebuilds{0};        //!< open-time index rebuilds
    std::atomic<uint64_t> rebuilt_records{0}; //!< records walked by rebuilds

    /** The store's volatile per-bucket chain lengths (`buckets`
     *  entries), set before the block attaches. Read by maxChain(). */
    const std::atomic<uint32_t> *chain_len = nullptr;

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
