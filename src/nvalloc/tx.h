/**
 * @file
 * Crash-consistent transaction layer (DESIGN.md §11).
 *
 * A transaction groups up to kTxMaxOps allocations, deferred frees and
 * 8-byte word updates into one atomic unit: after a crash, recovery
 * resolves every in-flight transaction to all-or-nothing. The layer
 * reuses the existing per-thread WAL rings rather than adding a second
 * log — each staged op journals one tx-tagged WAL entry (the same one
 * flush per op the plain fast path pays), and commit is a single
 * epoch-separated commit record + flush.
 *
 * Durability protocol, per thread ring:
 *
 *   txAlloc   journal kWalAlloc (tagged)   block allocated, NOT
 *                                          published until commit
 *   txFree    journal kWalFree (tagged)    block stays allocated;
 *                                          the free applies at commit
 *   txWrite   journal kWalTxData (tagged,  undo value in where_off,
 *             old+new word values)         redo value in size; the
 *                                          in-place write lands now
 *   txCommit  fence; journal ONE commit record (its own append flush
 *             is the commit point); then apply: publish attach words,
 *             perform deferred frees — with NO further journaling, so
 *             the commit record stays the ring's newest entry until
 *             the apply phase is complete
 *   txAbort   roll back live (restore words, free staged allocs),
 *             fence, journal an abort record
 *
 * Recovery (replayWals) finds the ring's newest intact entry; when it
 * is tx-tagged, the whole run of that tx id is gathered and resolved:
 * a commit record present → redo forward (idempotently), otherwise →
 * undo backward. Ring overwrites go oldest-seq-first, so a run's
 * record can never outlive its op entries out of order.
 *
 * While a transaction is open on a thread, plain alloc/free on the
 * same ThreadCtx are rejected (InvalidArgument): an untagged entry at
 * the ring tail would shadow the open run's resolution. Other threads
 * are unaffected — except that free() of a block staged in ANY open
 * transaction is rejected by the ordered free validator with
 * CorruptionKind::TxStagedFree instead of silently racing the commit.
 *
 * The whole tx lifetime holds a MaintenanceService pin, so background
 * slow GC never relocates bookkeeping-log entries out from under an
 * uncommitted transaction's large allocations.
 *
 * Sharing: no tx op writes a cache line that every thread writes. The
 * open tx id and the lifecycle counters (TxCounters) live in the
 * caller's ThreadCtx; the staged registry is striped by offset, so
 * stage/unstage/isStaged lock only the stripe their offset hashes to.
 * The exceptions are the id allocator (one relaxed fetch_add per
 * begin) and the maintenance pin.
 */

#ifndef NVALLOC_NVALLOC_TX_H
#define NVALLOC_NVALLOC_TX_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace nvalloc {

/** One staged operation of an open transaction. Volatile bookkeeping
 *  only: the durable twin is the tx-tagged WAL entry journaled when
 *  the op was staged. */
struct TxOp
{
    enum class Kind : uint8_t
    {
        Alloc,
        Free,
        Write,
    };

    Kind kind = Kind::Alloc;
    uint64_t off = 0; //!< block offset (Alloc/Free), word offset (Write)
    uint64_t *where = nullptr; //!< Alloc: attach target, published at
                               //!< commit (may be volatile or null)
    uint64_t old_value = 0;    //!< Write: undo value
    uint64_t new_value = 0;    //!< Write: redo value
    size_t size = 0;           //!< Alloc: requested size
};

/** Per-thread transaction state, embedded in ThreadCtx. The ops list
 *  is the bounded undo buffer: it can never exceed kTxMaxOps. */
struct TxContext
{
    /** Open tx id, 0 = none. Only the owning thread writes it; it is
     *  atomic because the auditor and stats.tx.open read it from other
     *  threads (NvAlloc::txIsOpen / txOpenCount). */
    std::atomic<uint32_t> id{0};
    std::vector<TxOp> ops;

    uint32_t current() const { return id.load(std::memory_order_relaxed); }
    bool open() const { return current() != 0; }

    void
    reset()
    {
        id.store(0, std::memory_order_relaxed);
        ops.clear();
    }
};

/** The stats.tx.* lifecycle counters, one block per ThreadCtx. Only
 *  the owning thread writes them (bump(): a load and a store, no RMW);
 *  the ctl readers sum the attached contexts plus the total that
 *  detachThread folds in, all under NvAlloc's attach mutex. */
struct TxCounters
{
    std::atomic<uint64_t> begins{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> aborts{0};
    std::atomic<uint64_t> ops_alloc{0};
    std::atomic<uint64_t> ops_free{0};
    std::atomic<uint64_t> ops_write{0};

    static void
    bump(std::atomic<uint64_t> &c)
    {
        c.store(c.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    /** Add every counter of `o` into this block (single writer). */
    void
    add(const TxCounters &o)
    {
        for (auto m : {&TxCounters::begins, &TxCounters::commits,
                       &TxCounters::aborts, &TxCounters::ops_alloc,
                       &TxCounters::ops_free, &TxCounters::ops_write}) {
            (this->*m).store((this->*m).load(std::memory_order_relaxed) +
                                 (o.*m).load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
        }
    }
};

/** The heap-wide stats.tx.* counters: only rejection paths and
 *  recovery bump them (the per-op counters are TxCounters). The
 *  atomics are read lock-free by the ctl tree; the recovered_* pair is
 *  plain because recovery runs single-threaded before any tx can
 *  open. */
struct TxStats
{
    /** Rejected tx calls: nested begin, op/commit/abort outside an
     *  open tx, degraded-open begin, bad txWrite target. */
    std::atomic<uint64_t> rejected{0};
    /** Ops refused because the tx already holds kTxMaxOps. */
    std::atomic<uint64_t> oversize{0};
    /** Plain alloc/free rejected because this thread has an open tx. */
    std::atomic<uint64_t> plain_ops_rejected{0};
    /** What the last recovery resolved (also in RecoveryInfo). */
    uint64_t recovered_committed = 0;
    uint64_t recovered_rolled_back = 0;
};

/**
 * Heap-wide transaction bookkeeping: id allocation, the staged-offset
 * registry consulted by the ordered free validator, and the rejection
 * counters. All volatile — a crash forgets it, and recovery clears the
 * rings it mirrors. Which transactions are open is not kept here: an
 * open tx is the nonzero TxContext::id of an attached ThreadCtx.
 *
 * The registry is split into kStagedStripes cache-line-aligned
 * stripes keyed by a hash of the offset, each with its own mutex, set
 * and count. One offset always maps to one stripe, so the
 * stage-before-validate arbitration between txFree and a racing plain
 * free holds exactly as with one set, while transactions staging
 * different offsets rarely meet on a lock. isStaged() skips the lock
 * whenever its stripe is empty.
 */
class TxManager
{
  public:
    static constexpr unsigned kStagedStripes = 64;

    /** Draw a new transaction id (nonzero). */
    uint32_t
    nextId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /** Recovery-time floor for id allocation: ids are volatile (they
     *  restart at 1 on reopen), but the rings persist records tagged
     *  with the previous instance's ids. Seeding past the largest id
     *  found in the rings keeps a fresh transaction from aliasing a
     *  stale commit/applied/abort record — resolution would otherwise
     *  mistake the stale control record for the new run's. */
    void
    seedNextId(uint32_t floor)
    {
        uint32_t cur = next_id_.load(std::memory_order_relaxed);
        while (cur < floor &&
               !next_id_.compare_exchange_weak(
                   cur, floor, std::memory_order_relaxed)) {
        }
    }

    /** Register `off` as staged by an open tx (a tx-allocated block
     *  awaiting publish, or a tx-freed block awaiting its deferred
     *  free). False if some tx already staged it. */
    bool
    stage(uint64_t off)
    {
        StagedStripe &st = stripeOf(off);
        std::lock_guard<std::mutex> g(st.mu);
        if (!st.offs.insert(off).second)
            return false;
        st.count.store(st.offs.size(), std::memory_order_relaxed);
        return true;
    }

    void
    unstage(uint64_t off)
    {
        StagedStripe &st = stripeOf(off);
        std::lock_guard<std::mutex> g(st.mu);
        st.offs.erase(off);
        st.count.store(st.offs.size(), std::memory_order_relaxed);
    }

    /** Free-validator probe: one relaxed load when the offset's
     *  stripe holds no staged block, the stripe lock otherwise. */
    bool
    isStaged(uint64_t off) const
    {
        const StagedStripe &st = stripeOf(off);
        if (st.count.load(std::memory_order_relaxed) == 0)
            return false;
        std::lock_guard<std::mutex> g(st.mu);
        return st.offs.count(off) != 0;
    }

    /** Auditor snapshot of the staged registry, stripe by stripe. */
    std::vector<uint64_t>
    stagedSnapshot() const
    {
        std::vector<uint64_t> out;
        for (const StagedStripe &st : staged_) {
            std::lock_guard<std::mutex> g(st.mu);
            out.insert(out.end(), st.offs.begin(), st.offs.end());
        }
        return out;
    }

    /** stats.tx.staged_blocks: the stripes' counts summed (a racy
     *  snapshot while transactions run, exact when none is open). */
    uint64_t
    stagedCount() const
    {
        uint64_t n = 0;
        for (const StagedStripe &st : staged_)
            n += st.count.load(std::memory_order_relaxed);
        return n;
    }

    TxStats &stats() { return stats_; }
    const TxStats &stats() const { return stats_; }

  private:
    struct alignas(64) StagedStripe
    {
        mutable std::mutex mu;
        std::unordered_set<uint64_t> offs;
        std::atomic<uint64_t> count{0};
    };

    /** Fibonacci hash: block offsets are multiples of 16 or more, so
     *  their low bits alone would crowd a few stripes. */
    static size_t
    stripeIndex(uint64_t off)
    {
        return size_t((off * 0x9e3779b97f4a7c15ULL) >> 58);
    }
    static_assert(kStagedStripes == 64, "stripeIndex keeps 6 bits");

    StagedStripe &stripeOf(uint64_t off) { return staged_[stripeIndex(off)]; }
    const StagedStripe &
    stripeOf(uint64_t off) const
    {
        return staged_[stripeIndex(off)];
    }

    std::array<StagedStripe, kStagedStripes> staged_;
    std::atomic<uint32_t> next_id_{0};
    TxStats stats_;
};

} // namespace nvalloc

#endif // NVALLOC_NVALLOC_TX_H
