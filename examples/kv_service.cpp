/**
 * @file
 * Minimal tour of the built-in KV service (src/kv/, DESIGN.md §13).
 *
 * Unlike persistent_kv.cpp — which hand-rolls a durable hash table to
 * show the raw allocator pattern — this example uses the packaged
 * KvStore: transactional all-or-nothing puts, erase through the
 * delayed-reuse quarantine, and a volatile index rebuilt from the
 * persistent buckets on every open. The demo crashes the device in the
 * middle of an update burst and shows that reopening recovers exactly
 * the committed records.
 */

#include <cstdio>
#include <string>

#include "kv/kv_store.h"
#include "nvalloc/nvalloc.h"

using namespace nvalloc;

int
main()
{
    PmDeviceConfig dcfg;
    dcfg.size = size_t{1} << 27; // 128 MB emulated PM, with a shadow
    dcfg.shadow = true;          // image so we can simulate power loss
    PmDevice dev(dcfg);

    // ---- first life: create the store and commit some records ------
    {
        auto heap_h = NvAlloc::openOrDie(dev, NvAllocConfig{});
        NvAlloc &heap = *heap_h;
        ThreadCtx *ctx = heap.attachThread();
        KvOptions opts;
        opts.buckets = 256;
        auto kv = KvStore::open(heap, opts);
        if (!ctx || !kv) {
            std::fprintf(stderr, "open failed\n");
            return 1;
        }

        for (int i = 0; i < 100; ++i)
            kv->put(*ctx, "key-" + std::to_string(i),
                    "value-" + std::to_string(i));
        kv->erase(*ctx, "key-7"); // freed block rides the quarantine

        // Crash in the middle of an update burst: from the 40th flush
        // on, nothing reaches the persistent image — exactly a power
        // cut mid-transaction.
        dev.armCrashAtFlush(40);
        for (int i = 0; i < 100; ++i)
            kv->put(*ctx, "key-" + std::to_string(i), "updated");
        heap.simulateCrash();
        std::printf("crashed mid-update (records so far: %llu)\n",
                    (unsigned long long)kv->count());
        heap.detachThread(ctx);
    }

    // ---- second life: recovery + index rebuild ---------------------
    {
        auto heap_h = NvAlloc::openOrDie(dev, NvAllocConfig{});
        NvAlloc &heap = *heap_h;
        auto kv = KvStore::open(heap, KvOptions{.buckets = 256});
        if (!kv) {
            std::fprintf(stderr, "reopen failed\n");
            return 1;
        }
        const RecoveryInfo &r = heap.lastRecovery();
        std::printf("recovery: committed=%llu rolled_back=%llu\n",
                    (unsigned long long)r.tx_committed,
                    (unsigned long long)r.tx_rolled_back);

        // Every record is either its old committed value or the fully
        // updated one — never a torn mix; key-7 stays erased.
        unsigned old_vals = 0, new_vals = 0, torn = 0;
        std::string v;
        for (int i = 0; i < 100; ++i) {
            KvStatus s = kv->get("key-" + std::to_string(i), &v);
            if (i == 7) {
                if (s != KvStatus::NotFound)
                    ++torn;
                continue;
            }
            if (s != KvStatus::Ok)
                ++torn;
            else if (v == "updated")
                ++new_vals;
            else if (v == "value-" + std::to_string(i))
                ++old_vals;
            else
                ++torn;
        }
        std::printf("after recovery: %u updated, %u original, %u torn\n",
                    new_vals, old_vals, torn);
        if (torn || kv->verify() != KvStatus::Ok) {
            std::fprintf(stderr, "store failed verification\n");
            return 1;
        }
        std::printf("verify: clean (%llu records rebuilt)\n",
                    (unsigned long long)kv->count());
    }
    return 0;
}
