/**
 * @file
 * alloc_churn: raw mallocTo/freeFrom publishing into persistent attach
 * words, no KV or tx layer. Each client owns a slot array in the heap
 * and alternates bursts of frees and allocs big enough to overflow the
 * per-class tcache. Every block carries a (slot, seq) stamp in its
 * first and last words, checked at free and after recovery, so two
 * live blocks that overlap are caught.
 */

#include <cstring>
#include <memory>

#include "bench.h"
#include "trace.h"

namespace perfbench {

using nvalloc::NvAlloc;

namespace {

constexpr unsigned kSlots = 5120;       //!< per client; ~8 MB live
constexpr unsigned kBurst = 1024;       //!< frees, then as many allocs
constexpr uint64_t kOpsPerClient = 500'000;
constexpr size_t kSmallMin = 16, kSmallMax = 1024;
constexpr size_t kLargeMin = 16 * 1024 + 1, kLargeMax = 256 * 1024;
constexpr unsigned kLargeEvery = 128;

size_t
sizeFor(Rng &rng)
{
    if (rng.below(kLargeEvery) == 0)
        return kLargeMin + rng.below(kLargeMax - kLargeMin + 1);
    return kSmallMin + rng.below(kSmallMax - kSmallMin + 1);
}

/** One client's slots: persistent attach words plus the benchmark's
 *  own record of what each live block should hold. */
struct Slots
{
    uint64_t *words = nullptr; //!< kSlots attach words inside the heap
    std::vector<uint32_t> size = std::vector<uint32_t>(kSlots);
    std::vector<uint32_t> seq = std::vector<uint32_t>(kSlots);
    unsigned owner = 0;

    uint64_t
    stamp(unsigned i) const
    {
        return (uint64_t(owner * kSlots + i) << 32) | seq[i];
    }
};

uint64_t *
lastWord(void *p, size_t size)
{
    return static_cast<uint64_t *>(p) + (size / 8 - 1);
}

/** Does slot i's block still carry its own stamp at both ends? */
bool
stampOk(NvAlloc &heap, const Slots &s, unsigned i)
{
    uint64_t off = s.words[i];
    if (off == 0 || off >= kDeviceBytes)
        return false;
    auto *p = static_cast<uint64_t *>(heap.at(off));
    return p[0] == s.stamp(i) && *lastWord(p, s.size[i]) == s.stamp(i);
}

bool
allocSlot(NvAlloc &heap, nvalloc::ThreadCtx &ctx, Slots &s, unsigned i,
          size_t size, OpSamples *samples)
{
    bool small = size <= kSmallMax;
    uint64_t t0 = hostNs();
    void *p;
    {
        trace::Span sp(small ? trace::Name::AllocSmall
                             : trace::Name::AllocLarge);
        p = heap.mallocTo(ctx, size, &s.words[i]);
    }
    if (samples)
        samples->add(small ? Op::AllocSmall : Op::AllocLarge,
                     hostNs() - t0);
    if (!p)
        return false;
    s.size[i] = uint32_t(size);
    ++s.seq[i];
    static_cast<uint64_t *>(p)[0] = s.stamp(i);
    *lastWord(p, size) = s.stamp(i);
    return true;
}

void
freeSlot(NvAlloc &heap, nvalloc::ThreadCtx &ctx, Slots &s, unsigned i,
         OpSamples *samples, Errors &errs)
{
    if (!stampOk(heap, s, i)) {
        // Leave the block alone: freeing through a clobbered or aliased
        // word would hand the heap a block some other slot owns.
        errs.add("slot " + std::to_string(s.owner) + "/" +
                 std::to_string(i) + " lost its stamp before free");
        return;
    }
    bool small = s.size[i] <= kSmallMax;
    uint64_t t0 = hostNs();
    nvalloc::NvStatus st;
    {
        trace::Span sp(small ? trace::Name::FreeSmall
                             : trace::Name::FreeLarge);
        st = heap.freeFrom(ctx, &s.words[i]);
    }
    if (samples)
        samples->add(small ? Op::FreeSmall : Op::FreeLarge, hostNs() - t0);
    if (st != nvalloc::NvStatus::Ok)
        errs.add("freeFrom slot " + std::to_string(i) + " refused");
}

} // namespace

Trial
runChurnTrial(const Options &opt)
{
    const uint64_t stream = mix64(opt.seed) ^ mix64(opt.trial + 1);
    Trial tr;
    Errors errs;
    VEpoch epoch;

    nvalloc::PmDeviceConfig dcfg;
    dcfg.size = kDeviceBytes;
    nvalloc::PmDevice dev(dcfg);
    const nvalloc::NvAllocConfig cfg;
    std::unique_ptr<NvAlloc> heap;
    std::vector<Slots> slots(kClients);
    std::vector<Rng> rngs;
    for (unsigned t = 0; t < kClients; ++t) {
        slots[t].owner = t;
        rngs.emplace_back(stream ^ mix64(t + 101));
    }

    // ---- setup: heap open, slot arrays, prefill every slot.
    uint64_t t0 = hostNs();
    {
        trace::Span sp(trace::Name::PhaseSetup);
        auto r = NvAlloc::open(dev, cfg);
        errs.expect(bool(r), [] { return "NvAlloc::open failed"; });
        if (!r) {
            errs.finish(tr);
            return tr;
        }
        heap = std::move(r.heap);
        std::vector<Client> loaders(kClients);
        runClients(loaders, epoch, [&](unsigned t, Client &) {
            nvalloc::ThreadCtx *ctx = heap->attachThread();
            Slots &s = slots[t];
            void *arr = heap->mallocTo(*ctx, kSlots * sizeof(uint64_t),
                                       heap->rootWord(1 + t));
            errs.expect(arr != nullptr,
                        [] { return "slot array allocation failed"; });
            if (arr) {
                s.words = static_cast<uint64_t *>(arr);
                std::memset(arr, 0, kSlots * sizeof(uint64_t));
                for (unsigned i = 0; i < kSlots; ++i)
                    errs.expect(allocSlot(*heap, *ctx, s, i,
                                          sizeFor(rngs[t]), nullptr),
                                [] { return "prefill mallocTo failed"; });
            }
            heap->detachThread(ctx);
        });
    }
    tr.setup_s = double(hostNs() - t0) / 1e9;
    if (errs.count()) {
        errs.finish(tr);
        return tr;
    }

    // ---- timed phase: bursts of frees then allocs over a random run
    // of consecutive slots.
    Counters before = readCounters(*heap);
    std::vector<Client> clients(kClients);
    uint64_t r0 = hostNs();
    runClients(clients, epoch, [&](unsigned t, Client &c) {
        trace::Span phase(trace::Name::PhaseRun);
        nvalloc::ThreadCtx *ctx = heap->attachThread();
        Slots &s = slots[t];
        Rng &rng = rngs[t];
        while (c.ops < kOpsPerClient) {
            unsigned first = unsigned(rng.below(kSlots));
            for (unsigned j = 0; j < kBurst; ++j)
                freeSlot(*heap, *ctx, s, (first + j) % kSlots, &c.samples,
                         errs);
            for (unsigned j = 0; j < kBurst; ++j) {
                unsigned i = (first + j) % kSlots;
                if (!allocSlot(*heap, *ctx, s, i, sizeFor(rng),
                               &c.samples))
                    errs.add("mallocTo failed in the timed phase");
            }
            c.ops += 2 * kBurst;
        }
        heap->detachThread(ctx);
    });
    tr.run_s = double(hostNs() - r0) / 1e9;
    tr.run_ctr = delta(readCounters(*heap), before);

    uint64_t max_vns = 0;
    for (Client &c : clients) {
        tr.ops += c.ops;
        tr.samples.append(c.samples);
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            tr.run_vns[k] += c.vns[k];
        max_vns = std::max(max_vns, c.vns_total);
    }
    tr.vthroughput_mops =
        max_vns ? double(tr.ops) / double(max_vns) * 1e3 : 0;

    double live = 0;
    for (const Slots &s : slots)
        for (unsigned i = 0; i < kSlots; ++i)
            live += s.size[i];
    {
        uint64_t committed = 0, peak = 0;
        heap->ctlRead("stats.heap.committed_bytes", &committed);
        heap->ctlRead("stats.heap.peak_committed_bytes", &peak);
        tr.committed_mb = double(committed) / 1048576.0;
        tr.peak_committed_mb = double(peak) / 1048576.0;
        tr.space_amp = double(committed) / live;
    }

    if (opt.inject == Inject::Alias) {
        // Point slot 0 at slot 1's block, as a heap handing one block
        // to two owners would; the stamp checks must notice.
        slots[0].words[0] = slots[0].words[1];
    }

    // ---- checks on the live heap.
    auto checkStamps = [&](const char *when) {
        for (const Slots &s : slots)
            for (unsigned i = 0; i < kSlots; ++i)
                errs.expect(stampOk(*heap, s, i), [&] {
                    return "slot " + std::to_string(s.owner) + "/" +
                           std::to_string(i) + " stamp " + when;
                });
    };
    checkStamps("after run");
    {
        trace::Span sp(trace::Name::CheckAudit);
        nvalloc::HeapAuditor auditor(*heap);
        errs.expect(auditor.audit().clean(), [] {
            return "HeapAuditor::audit after run is not clean";
        });
    }

    // ---- dirty restart, then serve again.
    heap->dirtyRestart();
    heap.reset();
    uint64_t h0 = hostNs();
    {
        trace::Span sp(trace::Name::RecoveryHeapOpen);
        auto r = NvAlloc::open(dev, cfg);
        if (r)
            heap = std::move(r.heap);
    }
    tr.heap_open_s = tr.recovery_s = double(hostNs() - h0) / 1e9;
    errs.expect(heap != nullptr, [] {
        return "NvAlloc::open after dirty restart failed";
    });
    if (heap) {
        tr.recovery_ctr = readCounters(*heap);
        tr.recovery_vns = double(heap->lastRecovery().virtual_ns);
        for (unsigned t = 0; t < kClients; ++t)
            errs.expect(*heap->rootWord(1 + t) ==
                            heap->offsetOf(slots[t].words),
                        [] { return "slot array root lost in recovery"; });
        checkStamps("after recovery");
        trace::Span sp(trace::Name::CheckAudit);
        nvalloc::HeapAuditor auditor(*heap);
        errs.expect(auditor.audit().clean(), [] {
            return "HeapAuditor::audit after recovery is not clean";
        });
    }
    errs.finish(tr);
    return tr;
}

} // namespace perfbench
