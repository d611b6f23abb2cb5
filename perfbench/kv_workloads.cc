/**
 * @file
 * kv_read_mostly and kv_update_heavy: closed-loop YCSB-B / YCSB-A
 * mixes over KvStore with zipfian keys, every returned value checked
 * against the versions the benchmark wrote for that key.
 */

#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "kv/kv_store.h"
#include "trace.h"

namespace perfbench {

using nvalloc::KvStatus;
using nvalloc::KvStore;
using nvalloc::NvAlloc;

namespace {

struct KvSpec
{
    uint64_t records;
    unsigned get_pct;          //!< share of gets, percent
    uint64_t large_every;      //!< 1 in N values is kLargeValue bytes
    uint64_t ops_per_client;   //!< timed-phase ops per client thread
    nvalloc::MaintenanceMode maintenance;
};

constexpr uint32_t kLargeValue = 16 * 1024;
constexpr uint32_t kValueMin = 64, kValueMax = 256;
/**
 * Which key holds which popularity rank is the same for every --seed:
 * the stripes the hottest keys share move get p99 by a third between
 * key sets (4.6 vs 6.2 us on kv_read_mostly), a property of the key
 * set, not of the code. Seeds vary the op stream and the values.
 */
constexpr uint64_t kKeySetSeed = 0x6b657973;
/** Keys re-read and checked after recovery. */
constexpr unsigned kRecoverySample = 4096;

KvSpec
specFor(const std::string &w)
{
    if (w == "kv_read_mostly")
        return {250'000, 95, 1024, 3'000'000,
                nvalloc::MaintenanceMode::Off};
    return {250'000, 50, 64, 150'000, nvalloc::MaintenanceMode::Thread};
}

/** "k" and the id as 10 zero-padded digits: fixed length, no heap. */
std::string
keyOf(uint64_t id)
{
    std::string k(11, '0');
    k[0] = 'k';
    for (size_t i = 10; i > 0 && id; --i, id /= 10)
        k[i] = char('0' + id % 10);
    return k;
}

/**
 * Values are self-describing: bytes 0-7 hold the key id, 8-15 the
 * version, and the rest is a stream seeded by (seed, id, version).
 * Loaded values (version 0) are large at every large_every-th
 * popularity rank, so how often gets meet a large value does not
 * depend on the seed; a put is large with probability 1/large_every.
 */
class ValueGen
{
  public:
    ValueGen(uint64_t seed, uint64_t large_every, const RankMap &ranks)
        : seed_(mix64(seed ^ 0x76616c7565ULL)), large_every_(large_every),
          ranks_(ranks)
    {
    }

    uint32_t
    length(uint64_t id, uint64_t ver) const
    {
        uint64_t h = mix64(seed_ ^ mix64(id * 0x100000001b3ULL + ver));
        bool large = ver == 0
                         ? ranks_.rank(id) % large_every_ == large_every_ - 1
                         : h % large_every_ == 0;
        if (large)
            return kLargeValue;
        return kValueMin + uint32_t((h >> 20) % (kValueMax - kValueMin + 1));
    }

    void
    fill(std::string &v, uint64_t id, uint64_t ver) const
    {
        v.resize(length(id, ver));
        std::memcpy(v.data(), &id, 8);
        std::memcpy(v.data() + 8, &ver, 8);
        uint64_t x = seed_ ^ (id << 20) ^ ver;
        for (size_t i = 16; i + 8 <= v.size(); i += 8) {
            uint64_t w = mix64(x++);
            std::memcpy(v.data() + i, &w, 8);
        }
    }

    /** Does `v` equal a value written for `id` with version <= max? */
    bool
    check(const std::string &v, uint64_t id, uint64_t max_ver) const
    {
        if (v.size() < 16)
            return false;
        uint64_t vid, ver;
        std::memcpy(&vid, v.data(), 8);
        std::memcpy(&ver, v.data() + 8, 8);
        if (vid != id || ver > max_ver || v.size() != length(id, ver))
            return false;
        uint64_t x = seed_ ^ (id << 20) ^ ver;
        for (size_t i = 16; i + 8 <= v.size(); i += 8) {
            uint64_t w = mix64(x++);
            if (std::memcmp(v.data() + i, &w, 8) != 0)
                return false;
        }
        return true;
    }

  private:
    uint64_t seed_;
    uint64_t large_every_;
    const RankMap &ranks_;
};

} // namespace

Trial
runKvTrial(const Options &opt)
{
    const KvSpec spec = specFor(opt.workload);
    const RankMap ranks(spec.records, kKeySetSeed);
    const ValueGen gen(opt.seed, spec.large_every, ranks);
    const uint64_t stream = mix64(opt.seed) ^ mix64(opt.trial + 1);
    Trial tr;
    Errors errs;
    VEpoch epoch;

    nvalloc::PmDeviceConfig dcfg;
    dcfg.size = kDeviceBytes;
    nvalloc::PmDevice dev(dcfg);
    nvalloc::NvAllocConfig cfg;
    cfg.maintenance_mode = spec.maintenance;
    nvalloc::KvOptions kopt;
    kopt.buckets = spec.records;

    std::vector<std::atomic<uint64_t>> versions(spec.records);
    std::vector<std::atomic<uint32_t>> last_len(spec.records);
    std::unique_ptr<NvAlloc> heap;
    std::unique_ptr<KvStore> store;

    // ---- setup: heap open, KV create, load every record at version 0.
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
        store = KvStore::open(*heap, kopt);
        errs.expect(store != nullptr,
                    [] { return "KvStore::open (create) failed"; });
        if (!store) {
            errs.finish(tr);
            return tr;
        }
        std::vector<Client> loaders(kClients);
        runClients(loaders, epoch, [&](unsigned t, Client &) {
            nvalloc::ThreadCtx *ctx = heap->attachThread();
            std::string v;
            for (uint64_t id = t; id < spec.records; id += kClients) {
                gen.fill(v, id, 0);
                KvStatus s;
                {
                    trace::Span op(trace::Name::KvPut);
                    s = store->put(*ctx, keyOf(id), v);
                }
                errs.expect(s == KvStatus::Ok, [&] {
                    return "load put " + keyOf(id) + ": " +
                           nvalloc::kvStatusName(s);
                });
                last_len[id].store(uint32_t(v.size()),
                                   std::memory_order_relaxed);
            }
            heap->detachThread(ctx);
        });
    }
    tr.setup_s = double(hostNs() - t0) / 1e9;
    if (errs.count()) {
        errs.finish(tr);
        return tr;
    }

    // ---- timed phase.
    Zipf zipf(spec.records, 0.99);
    Counters before = readCounters(*heap);
    std::vector<Client> clients(kClients);
    uint64_t r0 = hostNs();
    runClients(clients, epoch, [&](unsigned t, Client &c) {
        trace::Span phase(trace::Name::PhaseRun);
        nvalloc::ThreadCtx *ctx = heap->attachThread();
        Rng rng(stream ^ mix64(t + 101));
        std::string v, out;
        for (uint64_t i = 0; i < spec.ops_per_client; ++i) {
            uint64_t id = ranks.id(zipf.next(rng));
            std::string key = keyOf(id);
            if (rng.below(100) < spec.get_pct) {
                uint64_t s0 = hostNs();
                KvStatus s;
                {
                    trace::Span op(trace::Name::KvGet);
                    s = store->get(key, &out);
                }
                c.samples.add(Op::KvGet, hostNs() - s0);
                uint64_t max_ver = versions[id].load();
                if (s != KvStatus::Ok) {
                    errs.add("get " + key + ": " +
                             nvalloc::kvStatusName(s));
                } else if (!gen.check(out, id, max_ver)) {
                    errs.add("get " + key + " returned a value never "
                             "written for it");
                } else {
                    c.get_bytes += double(out.size());
                }
            } else {
                uint64_t ver = versions[id].fetch_add(1) + 1;
                gen.fill(v, id, ver);
                uint64_t s0 = hostNs();
                KvStatus s;
                {
                    trace::Span op(trace::Name::KvPut);
                    s = store->put(*ctx, key, v);
                }
                c.samples.add(Op::KvPut, hostNs() - s0);
                if (s != KvStatus::Ok) {
                    errs.add("put " + key + ": " +
                             nvalloc::kvStatusName(s));
                } else {
                    last_len[id].store(uint32_t(v.size()),
                                       std::memory_order_relaxed);
                }
            }
            ++c.ops;
        }
        heap->detachThread(ctx);
    });
    tr.run_s = double(hostNs() - r0) / 1e9;
    tr.run_ctr = delta(readCounters(*heap), before);

    uint64_t max_vns = 0;
    for (Client &c : clients) {
        tr.ops += c.ops;
        tr.get_value_bytes += c.get_bytes;
        tr.samples.append(c.samples);
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            tr.run_vns[k] += c.vns[k];
        max_vns = std::max(max_vns, c.vns_total);
    }
    tr.vthroughput_mops = max_vns ? double(tr.ops) / double(max_vns) * 1e3 : 0;

    double live = 0;
    for (uint64_t id = 0; id < spec.records; ++id)
        live += double(keyOf(0).size() + last_len[id].load());
    {
        uint64_t committed = 0, peak = 0;
        heap->ctlRead("stats.heap.committed_bytes", &committed);
        heap->ctlRead("stats.heap.peak_committed_bytes", &peak);
        tr.committed_mb = double(committed) / 1048576.0;
        tr.peak_committed_mb = double(peak) / 1048576.0;
        tr.space_amp = double(committed) / live;
    }
    tr.max_chain = double(store->maxChain());

    if (opt.inject == Inject::Stomp) {
        // Flip one payload byte of a loaded record behind the store's
        // back; verify() must catch the checksum mismatch.
        uint64_t off = store->recordOffset(keyOf(spec.records / 2));
        if (off) {
            char *rec = static_cast<char *>(heap->at(off));
            rec[KvStore::kRecordHeader + keyOf(0).size() + 20] ^= 0x5a;
        }
    }

    // ---- checks on the live heap.
    {
        trace::Span sp(trace::Name::CheckVerify);
        KvStatus s = store->verify();
        errs.expect(s == KvStatus::Ok, [&] {
            return std::string("KvStore::verify after run: ") +
                   nvalloc::kvStatusName(s);
        });
    }
    {
        trace::Span sp(trace::Name::CheckAudit);
        nvalloc::HeapAuditor auditor(*heap);
        errs.expect(auditor.audit().clean(), [] {
            return "HeapAuditor::audit after run is not clean";
        });
    }

    // ---- dirty restart, then serve again.
    store.reset();
    heap->dirtyRestart();
    heap.reset();
    uint64_t h0 = hostNs();
    {
        trace::Span sp(trace::Name::RecoveryHeapOpen);
        auto r = NvAlloc::open(dev, cfg);
        if (r)
            heap = std::move(r.heap);
    }
    uint64_t h1 = hostNs();
    if (heap) {
        trace::Span sp(trace::Name::RecoveryKvOpen);
        nvalloc::KvOptions ro = kopt;
        ro.create = false;
        store = KvStore::open(*heap, ro);
    }
    uint64_t h2 = hostNs();
    tr.heap_open_s = double(h1 - h0) / 1e9;
    tr.kv_open_s = double(h2 - h1) / 1e9;
    tr.recovery_s = double(h2 - h0) / 1e9;

    errs.expect(heap != nullptr, [] {
        return "NvAlloc::open after dirty restart failed";
    });
    errs.expect(store != nullptr, [] {
        return "KvStore::open after dirty restart failed";
    });
    if (store) {
        tr.recovery_ctr = readCounters(*heap);
        tr.recovery_vns = double(heap->lastRecovery().virtual_ns);
        errs.expect(store->count() == spec.records, [&] {
            return "count() after recovery is " +
                   std::to_string(store->count()) + ", loaded " +
                   std::to_string(spec.records);
        });
        KvStatus s = store->verify();
        errs.expect(s == KvStatus::Ok, [&] {
            return std::string("KvStore::verify after recovery: ") +
                   nvalloc::kvStatusName(s);
        });
        Rng rng(stream ^ 0x7265636fULL);
        std::string out;
        for (unsigned i = 0; i < kRecoverySample; ++i) {
            uint64_t id = rng.below(spec.records);
            errs.expect(store->get(keyOf(id), &out) == KvStatus::Ok &&
                            gen.check(out, id, versions[id].load()),
                        [&] { return "get " + keyOf(id) + " after recovery"; });
        }
    }
    errs.finish(tr);
    return tr;
}

} // namespace perfbench
