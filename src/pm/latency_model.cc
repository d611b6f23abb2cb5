#include "pm/latency_model.h"

#include <algorithm>
#include <bit>

#include "common/size_classes.h"

namespace nvalloc {

namespace {

constexpr unsigned kMruCap = 8;      // recent distinct lines tracked
constexpr uint64_t kXpLine = 256;    // Optane internal write granule

/** Fibonacci hash of an XPLine (low 8 bits always zero) into a table
 *  of 2^(64 - shift) slots. */
unsigned
xpHash(uint64_t xpline, unsigned shift)
{
    return unsigned((xpline * 0x9E3779B97F4A7C15ULL) >> shift);
}

} // namespace

/**
 * One thread's flush history and counter shard for one model. The
 * model owns it (so counts survive thread exit) and only the owning
 * thread writes it: the counters with relaxed load+store, the history
 * plainly. counts() reads the counters with relaxed loads. History is
 * keyed by the model's generation, so reset() cannot leak stale
 * recency state into the next benchmark phase.
 */
struct alignas(kCacheLine) LatencyModel::ThreadState
{
    // Counter shard, on its own line: the only part another thread
    // (counts()) ever reads.
    std::atomic<uint64_t> n_total{0};
    //! Indexed by FlushClass.
    std::atomic<uint64_t> n_class[kNumFlushClasses] = {};
    std::atomic<uint64_t> n_fence{0};

    alignas(kCacheLine) uint64_t generation = 0;

    // MRU list of recently flushed 64 B lines, deduplicated.
    uint64_t mru[kMruCap] = {};
    unsigned mru_len = 0;

    // LRU set of buffered 256 B XPLines: xp_cap nodes doubly linked
    // from xp_oldest to xp_newest, found through an open-addressed
    // table (linear probing, at most half full) of XPLine -> node.
    // Hits, inserts and evictions are O(1); nothing scans the buffer.
    static constexpr uint32_t kNil = ~uint32_t{0};
    struct XpNode
    {
        uint64_t xpline;
        uint32_t older, newer;
    };
    struct XpSlot
    {
        uint64_t xpline;
        uint32_t node; //!< kNil: empty
    };
    std::unique_ptr<XpNode[]> xp_nodes;
    std::unique_ptr<XpSlot[]> xp_table;
    unsigned xp_cap;
    unsigned xp_mask = 0;  //!< table slots - 1
    unsigned xp_shift = 0; //!< 64 - log2(table slots)
    unsigned xp_len = 0;   //!< nodes in use, filled in index order
    uint32_t xp_oldest = kNil;
    uint32_t xp_newest = kNil;

    uint64_t last_miss_xpline = ~uint64_t{0};

    // Sink attribution row (FlushSink::flushCells), re-resolved
    // whenever the model's sink epoch moves past sink_epoch. epoch 0
    // never matches the model's (it starts at 1), so a fresh history
    // resolves on its first flush.
    std::atomic<uint64_t> *sink_cells = nullptr;
    uint64_t sink_epoch = 0;

    explicit ThreadState(unsigned xpbuf_lines) : xp_cap(xpbuf_lines)
    {
        if (xp_cap == 0)
            return;
        unsigned slots = std::bit_ceil(2 * xp_cap);
        xp_nodes = std::make_unique<XpNode[]>(xp_cap);
        xp_table = std::make_unique<XpSlot[]>(slots);
        xp_mask = slots - 1;
        xp_shift = 64 - std::countr_zero(slots);
        clearXpBuffer();
    }

    /** Forget every flush before generation `gen`; counters stay. */
    void
    resetHistory(uint64_t gen)
    {
        generation = gen;
        mru_len = 0;
        clearXpBuffer();
        last_miss_xpline = ~uint64_t{0};
        sink_cells = nullptr;
        sink_epoch = 0;
    }

    /** Reflush distance of `line`, or kMruCap if the line was not
     *  flushed recently (a fresh line is never a reflush, no matter
     *  how short the history is). Also moves/inserts the line to the
     *  MRU front. */
    unsigned
    touchLine(uint64_t line)
    {
        unsigned found = mru_len;
        for (unsigned i = 0; i < mru_len; ++i) {
            if (mru[i] == line) {
                found = i;
                break;
            }
        }
        bool fresh = found == mru_len;
        unsigned shift_end =
            fresh ? (mru_len < kMruCap ? mru_len : kMruCap - 1) : found;
        for (unsigned i = shift_end; i > 0; --i)
            mru[i] = mru[i - 1];
        mru[0] = line;
        if (fresh && mru_len < kMruCap)
            ++mru_len;
        return fresh ? kMruCap : found;
    }

    /** True if the XPLine was buffered; makes it the newest either
     *  way, evicting the oldest on a miss into a full buffer. */
    bool
    touchXpLine(uint64_t xpline)
    {
        if (xp_cap == 0)
            return false;
        unsigned i = xpHash(xpline, xp_shift);
        for (;; i = (i + 1) & xp_mask) {
            const XpSlot &s = xp_table[i];
            if (s.node == kNil)
                break;
            if (s.xpline == xpline) {
                if (s.node != xp_newest) {
                    unlinkXp(s.node);
                    pushNewestXp(s.node);
                }
                return true;
            }
        }
        uint32_t n;
        if (xp_len < xp_cap) {
            n = xp_len++;
        } else {
            // Full: the oldest node becomes the newest.
            n = xp_oldest;
            unlinkXp(n);
            eraseXpSlot(xp_nodes[n].xpline);
        }
        xp_nodes[n].xpline = xpline;
        pushNewestXp(n);
        i = xpHash(xpline, xp_shift);
        while (xp_table[i].node != kNil)
            i = (i + 1) & xp_mask;
        xp_table[i] = XpSlot{xpline, n};
        return false;
    }

  private:
    void
    clearXpBuffer()
    {
        xp_len = 0;
        xp_oldest = xp_newest = kNil;
        if (xp_table) {
            for (unsigned i = 0; i <= xp_mask; ++i)
                xp_table[i].node = kNil;
        }
    }

    void
    unlinkXp(uint32_t n)
    {
        const XpNode &x = xp_nodes[n];
        (x.older != kNil ? xp_nodes[x.older].newer : xp_oldest) = x.newer;
        (x.newer != kNil ? xp_nodes[x.newer].older : xp_newest) = x.older;
    }

    void
    pushNewestXp(uint32_t n)
    {
        xp_nodes[n].older = xp_newest;
        xp_nodes[n].newer = kNil;
        (xp_newest != kNil ? xp_nodes[xp_newest].newer : xp_oldest) = n;
        xp_newest = n;
    }

    /** Remove a buffered XPLine's slot with backward-shift deletion,
     *  so probe chains need no tombstones. */
    void
    eraseXpSlot(uint64_t xpline)
    {
        unsigned i = xpHash(xpline, xp_shift);
        while (xp_table[i].xpline != xpline || xp_table[i].node == kNil)
            i = (i + 1) & xp_mask;
        for (unsigned j = (i + 1) & xp_mask; xp_table[j].node != kNil;
             j = (j + 1) & xp_mask) {
            // Slot j may fill the hole at i only if i lies on its probe
            // path, i.e. cyclically in [home(j), j).
            unsigned home = xpHash(xp_table[j].xpline, xp_shift);
            if (((j - home) & xp_mask) >= ((j - i) & xp_mask)) {
                xp_table[i] = xp_table[j];
                i = j;
            }
        }
        xp_table[i].node = kNil;
    }
};

namespace {

/** A thread's ThreadState for one model; one per model it flushed. */
struct TlRef
{
    const LatencyModel *owner;
    uint64_t id;
    LatencyModel::ThreadState *ts;
};

thread_local std::vector<TlRef> tl_refs;

/** Single-entry cache in front of tl_refs, matched against (model,
 *  generation). POD with constant initialization, so the access is a
 *  plain TLS load with no guard check. */
struct FastRef
{
    const LatencyModel *owner;
    uint64_t generation;
    LatencyModel::ThreadState *ts;
};

constinit thread_local FastRef tl_fast{nullptr, 0, nullptr};

// Ids and generations are drawn from one process-wide counter, never
// reused. If a destroyed model's address is recycled for a new one, a
// per-model counter would restart at the same value and the stale
// thread-local refs would wrongly match, reviving a freed ThreadState.
std::atomic<uint64_t> g_generation{1};

/** Owner-thread increment: the shard is private to this thread, so a
 *  relaxed load+store replaces a locked fetch_add. */
void
bump(std::atomic<uint64_t> &a)
{
    a.store(a.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}

} // namespace

LatencyModel::LatencyModel(LatencyParams params)
    : params_(params),
      id_(g_generation.fetch_add(1, std::memory_order_relaxed)),
      generation_(id_), media_(params.media_slots)
{
}

LatencyModel::~LatencyModel() = default;

LatencyModel::ThreadState &
LatencyModel::threadState()
{
    uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (tl_fast.owner == this && tl_fast.generation == gen) [[likely]]
        return *tl_fast.ts;
    return threadStateSlow(gen);
}

LatencyModel::ThreadState &
LatencyModel::threadStateSlow(uint64_t gen)
{
    ThreadState *ts = nullptr;
    for (const TlRef &ref : tl_refs) {
        if (ref.owner == this && ref.id == id_) {
            ts = ref.ts;
            break;
        }
    }
    if (!ts) {
        auto owned = std::make_unique<ThreadState>(params_.xpbuf_lines);
        ts = owned.get();
        {
            std::lock_guard<std::mutex> g(states_mutex_);
            states_.push_back(std::move(owned));
        }
        // Reuse the ref a destroyed model at this address left behind.
        TlRef fresh{this, id_, ts};
        auto it = std::find_if(tl_refs.begin(), tl_refs.end(),
                               [this](const TlRef &r) {
                                   return r.owner == this;
                               });
        if (it != tl_refs.end())
            *it = fresh;
        else
            tl_refs.push_back(fresh);
    }
    if (ts->generation != gen)
        ts->resetHistory(gen);
    tl_fast = FastRef{this, gen, ts};
    return *ts;
}

void
LatencyModel::noteClass(FlushClass cls, ThreadState &ts)
{
    bump(ts.n_class[static_cast<unsigned>(cls)]);
    // Sink attribution: resolve the cell row lazily (once per thread
    // per epoch), then bump it with a relaxed load+store — the row is
    // owned by this thread, so no read-modify-write is needed. The
    // epoch is checked before every use, so a row handed out by a
    // since-replaced sink can never be written.
    uint64_t ep = sink_epoch_.load(std::memory_order_relaxed);
    if (ts.sink_epoch != ep) {
        FlushSink *s = sink_.load(std::memory_order_acquire);
        ts.sink_cells = s ? s->flushCells() : nullptr;
        ts.sink_epoch = ep;
    }
    if (std::atomic<uint64_t> *row = ts.sink_cells) {
        auto &cell = row[static_cast<unsigned>(cls)];
        cell.store(cell.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
}

void
LatencyModel::chargeMedia(uint64_t line, ThreadState &ts, TimeKind kind)
{
    uint64_t xpline = line & ~(kXpLine - 1);
    bool sequential = (xpline == ts.last_miss_xpline ||
                       xpline == ts.last_miss_xpline + kXpLine);
    ts.last_miss_xpline = xpline;

    uint64_t cost = sequential ? params_.media_seq : params_.media_random;
    noteClass(sequential ? FlushClass::Sequential : FlushClass::Random,
              ts);

    // Media writes share the drain bandwidth; queueing delay appears
    // as the booked start moving past the thread's current clock.
    uint64_t start = media_.reserve(VClock::now(), cost);
    VClock::advanceTo(start + cost, kind);
}

void
LatencyModel::onFlush(uint64_t line, TimeKind kind)
{
    ThreadState &ts = threadState();
    bump(ts.n_total);

    if (tracing_.load(std::memory_order_relaxed)) [[unlikely]] {
        std::lock_guard<std::mutex> g(trace_mutex_);
        if (trace_.size() < trace_cap_)
            trace_.push_back(line);
    }

    if (eadr_) {
        // No flush stall; repeated dirtying of the same line is free
        // (write combining), but distinct lines still drain to media.
        unsigned distance = ts.touchLine(line);
        if (distance < params_.reflush_window) {
            noteClass(FlushClass::Reflush, ts);
            return;
        }
        uint64_t xpline = line & ~(kXpLine - 1);
        if (ts.touchXpLine(xpline)) {
            noteClass(FlushClass::XpLineHit, ts);
            VClock::advance(params_.eadr_hit, kind);
        } else {
            bool sequential = (xpline == ts.last_miss_xpline ||
                               xpline == ts.last_miss_xpline + kXpLine);
            ts.last_miss_xpline = xpline;
            uint64_t cost =
                sequential ? params_.eadr_seq : params_.eadr_random;
            noteClass(sequential ? FlushClass::Sequential
                                 : FlushClass::Random,
                      ts);
            VClock::advance(cost, kind);
        }
        return;
    }

    VClock::advance(params_.issue, kind);

    unsigned distance = ts.touchLine(line);
    if (distance < params_.reflush_window) {
        // Reflush: the line is still being written back; cost shrinks
        // as the distance grows (paper: 800 ns at 0 down to 500 at 3).
        noteClass(FlushClass::Reflush, ts);
        uint64_t cost = params_.reflush_base -
                        params_.reflush_step * distance;
        VClock::advance(cost, kind);
        return;
    }

    uint64_t xpline = line & ~(kXpLine - 1);
    if (ts.touchXpLine(xpline)) {
        noteClass(FlushClass::XpLineHit, ts);
        VClock::advance(params_.xpline_hit, kind);
    } else {
        chargeMedia(line, ts, kind);
    }
}

void
LatencyModel::onFence()
{
    bump(threadState().n_fence);
    if (!eadr_)
        VClock::advance(params_.fence, TimeKind::Fence);
}

void
LatencyModel::setEadr(bool on)
{
    eadr_ = on;
    reset();
}

void
LatencyModel::reset()
{
    generation_.store(g_generation.fetch_add(1, std::memory_order_relaxed),
                      std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> g(states_mutex_);
        base_ = sumShards();
    }
    media_.reset();
}

FlushClassCounts
LatencyModel::sumShards() const
{
    FlushClassCounts c;
    for (const auto &ts : states_) {
        c.total += ts->n_total.load(std::memory_order_relaxed);
        c.reflush += ts->n_class[unsigned(FlushClass::Reflush)].load(
            std::memory_order_relaxed);
        c.sequential += ts->n_class[unsigned(FlushClass::Sequential)].load(
            std::memory_order_relaxed);
        c.random += ts->n_class[unsigned(FlushClass::Random)].load(
            std::memory_order_relaxed);
        c.xpline_hit += ts->n_class[unsigned(FlushClass::XpLineHit)].load(
            std::memory_order_relaxed);
        c.fences += ts->n_fence.load(std::memory_order_relaxed);
    }
    return c;
}

FlushClassCounts
LatencyModel::counts() const
{
    std::lock_guard<std::mutex> g(states_mutex_);
    FlushClassCounts c = sumShards();
    c.total -= base_.total;
    c.reflush -= base_.reflush;
    c.sequential -= base_.sequential;
    c.random -= base_.random;
    c.xpline_hit -= base_.xpline_hit;
    c.fences -= base_.fences;
    return c;
}

void
LatencyModel::startTrace(size_t max_entries)
{
    std::lock_guard<std::mutex> g(trace_mutex_);
    trace_.clear();
    trace_cap_ = max_entries;
    tracing_.store(true, std::memory_order_relaxed);
}

std::vector<uint64_t>
LatencyModel::stopTrace()
{
    // Idempotent: a stop with no trace running (never started, or
    // already stopped) leaves an empty buffer behind and returns an
    // empty vector, so unbalanced start/stop pairs cannot hand out a
    // stale trace or touch a moved-from vector.
    std::vector<uint64_t> out;
    std::lock_guard<std::mutex> g(trace_mutex_);
    tracing_.store(false, std::memory_order_relaxed);
    trace_cap_ = 0;
    out.swap(trace_);
    return out;
}

} // namespace nvalloc
