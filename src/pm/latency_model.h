/**
 * @file
 * Flush classification and cost model for emulated persistent memory.
 *
 * Reproduces the performance characteristics the paper builds on:
 *
 *  - Cache line *reflush*: flushing a 64 B line whose reflush distance
 *    (number of distinct lines flushed since its last flush) is < 4 is
 *    far more expensive than a regular flush; latency decreases from
 *    800 ns at distance 0 to 500 ns at distance 3 (paper §3.1).
 *  - Sequential vs random small writes: Optane serves sequential
 *    flushes faster than random ones (paper §3.3, [40]).
 *  - XPBuffer: the DIMM's internal write-combining buffer holds a
 *    limited number of 256 B XPLines; flushes that hit a buffered
 *    XPLine are cheap, misses pay a media write and consume shared
 *    media bandwidth, modeled as a small pool of virtual-time slots.
 *    This reproduces the non-monotone bit-stripe sensitivity of
 *    Fig. 16(a).
 *  - eADR: flushes become free (only counted), as in the paper's §6.7
 *    emulation.
 *
 * All costs advance the calling thread's VClock; counts are
 * deterministic for a fixed workload trace.
 *
 * Host cost: the flush and fence paths write only thread-owned memory
 * (the calling thread's ThreadState: history plus counter shard), so
 * concurrent flushing threads share no written cache line except the
 * media server's on an XPLine miss. counts() sums the shards; reset()
 * records a base snapshot instead of writing other threads' shards.
 */

#ifndef NVALLOC_PM_LATENCY_MODEL_H
#define NVALLOC_PM_LATENCY_MODEL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/size_classes.h"
#include "pm/vclock.h"

namespace nvalloc {

/** Tunable constants, all in virtual nanoseconds unless noted. */
struct LatencyParams
{
    // Reflush: cost = reflush_base - reflush_step * distance.
    uint64_t reflush_base = 800;
    uint64_t reflush_step = 100;
    unsigned reflush_window = 4; //!< distance < window => reflush

    uint64_t xpline_hit = 60;    //!< flush into a buffered XPLine
    uint64_t media_seq = 100;    //!< XPLine miss, sequential successor
    uint64_t media_random = 250; //!< XPLine miss, random target
    uint64_t issue = 20;         //!< fixed CPU cost of any clwb
    uint64_t fence = 30;         //!< sfence

    unsigned xpbuf_lines = 64;   //!< XPBuffer capacity: 16 KB of 256 B XPLines [40]
    unsigned media_slots = 8;    //!< concurrent media writes (2 DIMMs x 4 WPQ slots)

    // eADR: flush *stalls* disappear (the cache is persistent) but PM
    // write traffic still drains through the same media, so dirty
    // lines cost a little, more if random (§6.7: NVAlloc keeps its
    // advantage on eADR through fewer accesses and better locality).
    uint64_t eadr_hit = 5;       //!< write into a buffered XPLine
    uint64_t eadr_seq = 25;      //!< sequential writeback
    uint64_t eadr_random = 60;   //!< random writeback

    uint64_t read_miss = 0;      //!< PM reads are not modeled
};

/** Mapping a TimeKind for a flush; see VClock. */
struct FlushClassCounts
{
    uint64_t total = 0;
    uint64_t reflush = 0;
    uint64_t sequential = 0;
    uint64_t random = 0;
    uint64_t xpline_hit = 0;
    uint64_t fences = 0;
};

/** How a flush was served; mirrors the FlushClassCounts buckets. */
enum class FlushClass : unsigned
{
    Reflush = 0,
    Sequential,
    Random,
    XpLineHit,
    NumClasses,
};

constexpr unsigned kNumFlushClasses =
    static_cast<unsigned>(FlushClass::NumClasses);

inline const char *
flushClassName(FlushClass c)
{
    switch (c) {
    case FlushClass::Reflush: return "reflush";
    case FlushClass::Sequential: return "sequential";
    case FlushClass::Random: return "random";
    case FlushClass::XpLineHit: return "xpline_hit";
    case FlushClass::NumClasses: break;
    }
    return "?";
}

/**
 * The hook a telemetry layer installs to attribute flush classes to
 * whatever higher-level context it tracks (heap, arena, thread).
 *
 * The model does not make a virtual call per flush. Instead it asks
 * the sink once per thread — and again whenever the sink epoch moves
 * (setSink / invalidateSinkCells) — for that thread's *cell row*:
 * kNumFlushClasses relaxed atomics, indexed by FlushClass, that only
 * the calling thread will write. Every classified flush then bumps
 * row[class] directly, so the steady-state cost of an installed sink
 * is one relaxed load+store. flushCells() runs on the flushing
 * thread, inside the flush path; it may return nullptr to decline
 * attribution for that thread and must not flush. The returned row
 * must stay valid until the sink is uninstalled or the epoch is
 * bumped again.
 */
class FlushSink
{
  public:
    virtual ~FlushSink() = default;
    virtual std::atomic<uint64_t> *flushCells() = 0;
};

class LatencyModel
{
  public:
    explicit LatencyModel(LatencyParams params = {});
    ~LatencyModel();

    /** Charge one 64 B cache-line flush at heap offset `line` (already
     *  line-aligned), attributed to `kind`. */
    void onFlush(uint64_t line, TimeKind kind);

    void onFence();

    /** Switch eADR emulation on or off (also resets history). */
    void setEadr(bool on);
    bool eadr() const { return eadr_; }

    const LatencyParams &params() const { return params_; }

    /** Zero counters and invalidate all per-thread history. */
    void reset();

    FlushClassCounts counts() const;

    /**
     * Install (or, with nullptr, remove) the flush-classification
     * sink. One sink at a time — installing replaces the previous one
     * (last writer wins; the allocator that owns the device's traffic
     * installs its telemetry here and removes it on destruction). The
     * caller guarantees the sink outlives its installation.
     */
    void
    setSink(FlushSink *sink)
    {
        sink_.store(sink, std::memory_order_release);
        invalidateSinkCells();
    }

    FlushSink *
    sink() const
    {
        return sink_.load(std::memory_order_acquire);
    }

    /**
     * Drop every thread's cached cell row; each thread re-asks the
     * sink on its next flush. setSink calls this itself; a sink whose
     * attribution target changed out of band (say, a thread re-bound
     * to a different arena) calls it directly. One atomic increment.
     */
    void
    invalidateSinkCells()
    {
        sink_epoch_.fetch_add(1, std::memory_order_release);
    }

    /**
     * Begin recording flush offsets (for the Fig. 2 scatter). Calling
     * it while a trace is already running restarts the trace: the
     * buffer is cleared and the new capacity applies.
     */
    void startTrace(size_t max_entries);

    /**
     * End the trace and return the recorded offsets. Idempotent and
     * safe without a matching startTrace: a stop when no trace is
     * running (including a second consecutive stop) returns an empty
     * vector and changes nothing.
     */
    std::vector<uint64_t> stopTrace();

    bool
    tracing() const
    {
        return tracing_.load(std::memory_order_relaxed);
    }

    struct ThreadState;

  private:
    ThreadState &threadState();
    ThreadState &threadStateSlow(uint64_t gen);
    void chargeMedia(uint64_t line, ThreadState &ts, TimeKind kind);
    void noteClass(FlushClass cls, ThreadState &ts);
    FlushClassCounts sumShards() const; //!< caller holds states_mutex_

    // Read-mostly: every flush reads these, and only construction and
    // the rare control calls (setEadr, reset, setSink, startTrace,
    // stopTrace) write them, so they never share a line with anything
    // the flush path writes.
    alignas(kCacheLine) const LatencyParams params_;
    //! Process-unique identity: a model built at a destroyed one's
    //! address never matches the thread-local refs the old one left.
    const uint64_t id_;
    //! Per-thread history epoch; reset() moves it to a fresh
    //! process-unique value.
    std::atomic<uint64_t> generation_;
    std::atomic<FlushSink *> sink_{nullptr};
    //! Bumped on every setSink/invalidateSinkCells; threads compare it
    //! against their cached row's epoch before trusting the pointer.
    std::atomic<uint64_t> sink_epoch_{1};
    bool eadr_ = false;
    std::atomic<bool> tracing_{false};

    // Shared media bandwidth (XPBuffer drain ports): a windowed
    // capacity server with `media_slots` parallel units. Its mutex is
    // taken on every XPLine miss, so it gets a line of its own.
    alignas(kCacheLine) VServer media_;

    // Cold: the per-thread states (counter shards) this model owns,
    // the counts reset() subtracts, and the optional flush trace.
    alignas(kCacheLine) mutable std::mutex states_mutex_;
    std::vector<std::unique_ptr<ThreadState>> states_;
    FlushClassCounts base_;

    std::mutex trace_mutex_;
    size_t trace_cap_ = 0;
    std::vector<uint64_t> trace_;
};

} // namespace nvalloc

#endif // NVALLOC_PM_LATENCY_MODEL_H
