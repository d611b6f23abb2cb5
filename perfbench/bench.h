/**
 * @file
 * Shared pieces of the end-to-end benchmark: options, seeded input
 * generation, host-time latency samples, ctl-counter snapshots and the
 * per-trial result every workload fills in.
 *
 * The benchmark drives NVAlloc only through its public API and times
 * each call from here; it never reaches into the library's internals.
 * Input generation lives here too, so inputs stay identical for a given
 * seed whatever the library does.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nvalloc/nvalloc.h"
#include "pm/vclock.h"

namespace perfbench {

using nvalloc::kNumTimeKinds;
using VnsArray = std::array<uint64_t, kNumTimeKinds>;

/** Client threads per workload (closed loop, one process). */
constexpr unsigned kClients = 2;
/** Anonymous emulated PM device backing every heap. */
constexpr size_t kDeviceBytes = size_t{4} << 30;

/** Fault a self-test run plants to prove the checks fire. */
enum class Inject
{
    None,
    Stomp, //!< overwrite one KV record's payload byte
    Alias, //!< point one churn slot at another slot's block
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    unsigned trial = 0;      //!< index within the run; picks the stream
    bool trace = false;
    std::string trace_out;   //!< span dump path ("" = none)
    Inject inject = Inject::None;
};

// ---- seeded generation ------------------------------------------------

inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** SplitMix64 stream: small, seedable, and owned by the benchmark so
 *  inputs never depend on library code. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : x_(mix64(seed)) {}
    uint64_t next() { return mix64(x_++); }
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t x_;
};

/** YCSB's zipfian generator (Gray et al.): popularity ranks, 0 the
 *  most popular. */
class Zipf
{
  public:
    Zipf(uint64_t items, double theta);
    uint64_t next(Rng &rng) const;

  private:
    uint64_t items_;
    double theta_, zetan_, alpha_, eta_, half_pow_;
};

/** Seeded bijection between popularity ranks and key ids,
 *  id = (rank * mult + shift) mod items, so hot keys land anywhere in
 *  the key space while every rank keeps one key. */
class RankMap
{
  public:
    RankMap(uint64_t items, uint64_t seed);
    uint64_t id(uint64_t rank) const { return (rank * mult_ + shift_) % n_; }
    uint64_t
    rank(uint64_t id) const
    {
        return ((id + n_ - shift_) % n_) * inv_ % n_;
    }

  private:
    uint64_t n_, mult_, shift_, inv_;
};

// ---- host time --------------------------------------------------------

inline uint64_t
hostNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** Op kinds the benchmark times call by call. */
enum class Op : unsigned
{
    KvGet = 0,
    KvPut,
    AllocSmall,
    AllocLarge,
    FreeSmall,
    FreeLarge,
    NumOps,
};
constexpr unsigned kNumOps = unsigned(Op::NumOps);

/** Per-thread host-ns latency samples, one vector per op kind. */
struct OpSamples
{
    std::array<std::vector<uint32_t>, kNumOps> ns;

    void
    add(Op op, uint64_t d)
    {
        ns[unsigned(op)].push_back(d > UINT32_MAX ? UINT32_MAX
                                                  : uint32_t(d));
    }
    void append(const OpSamples &o);
};

/** q-quantile (0..1) of the samples, in microseconds; 0 when empty. */
double quantileUs(std::vector<uint32_t> &v, double q);

/** Tracks the latest virtual time any worker reached, so each phase's
 *  workers start their clocks together past every earlier booking of
 *  the heap's virtual-time servers. */
class VEpoch
{
  public:
    uint64_t base() const { return t_.load(); }
    void
    observe(uint64_t t)
    {
        uint64_t cur = t_.load();
        while (t > cur && !t_.compare_exchange_weak(cur, t)) {
        }
    }

  private:
    std::atomic<uint64_t> t_{0};
};

// ---- counters ---------------------------------------------------------

/** Values of a fixed set of ctl names (plus large().stats()). */
using Counters = std::map<std::string, double>;

Counters readCounters(nvalloc::NvAlloc &heap);
/** after - before, name by name. */
Counters delta(const Counters &after, const Counters &before);

// ---- trials -----------------------------------------------------------

/** What one trial (setup, timed phase, checks, restart) measured. */
struct Trial
{
    double setup_s = 0;
    double run_s = 0;          //!< host wall time of the timed phase
    uint64_t ops = 0;          //!< ops completed in the timed phase
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double recovery_s = 0;     //!< dirty restart to serving again
    double heap_open_s = 0;
    double kv_open_s = 0;
    double space_amp = 0;
    double committed_mb = 0;
    double peak_committed_mb = 0;
    double vthroughput_mops = 0;
    double get_value_bytes = 0; //!< value bytes returned by Ok gets
    double max_chain = 0;
    VnsArray run_vns{};        //!< summed over clients, timed phase
    Counters run_ctr;          //!< ctl deltas over the timed phase
    Counters recovery_ctr;     //!< ctl values of the reopened heap
    double recovery_vns = 0;
    OpSamples samples;
    std::vector<std::string> errors; //!< failed correctness checks
};

/** Correctness checks of one trial, shared by the client threads.
 *  Every failed op and every failed check is one failure. */
class Errors
{
  public:
    void
    add(std::string what)
    {
        std::lock_guard<std::mutex> g(mu_);
        if (list_.size() < 16)
            list_.push_back(std::move(what));
        ++count_;
    }

    uint64_t count() const { return count_.load(); }

    /** A check or an untimed op (load, prefill): counted as attempted
     *  on top of the timed-phase ops. `describe` builds the message
     *  only on failure. */
    template <typename Describe>
    void
    expect(bool ok, Describe &&describe)
    {
        ++checks_;
        if (!ok)
            add(std::string(describe()));
    }

    /** Hand failures and the check count to the trial. */
    void
    finish(Trial &tr)
    {
        std::lock_guard<std::mutex> g(mu_);
        tr.failed = count_.load();
        tr.attempted = tr.ops + checks_.load();
        tr.errors = list_;
        if (tr.failed > list_.size())
            tr.errors.push_back("... " +
                                std::to_string(tr.failed - list_.size()) +
                                " more");
    }

  private:
    std::mutex mu_;
    std::vector<std::string> list_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> checks_{0};
};

struct Client
{
    OpSamples samples;
    VnsArray vns{};
    uint64_t vns_total = 0;
    uint64_t ops = 0;
    double get_bytes = 0;
};

/** Pin the calling thread to the i-th CPU the process may use, so each
 *  client has a core of its own in every trial (when the scheduler is
 *  left to place them, two clients sometimes share one core and the
 *  run measures time slicing instead of cross-core traffic). */
void pinToCpu(unsigned i);

/** Run one body per client thread; each starts its virtual clock at
 *  the epoch base and records its per-kind virtual-ns delta. Returns
 *  once every client has ended (jthread joins on scope exit, also when
 *  a later spawn throws). */
template <typename Body>
void
runClients(std::vector<Client> &clients, VEpoch &epoch, Body body)
{
    const uint64_t base = epoch.base();
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < clients.size(); ++t)
        ts.emplace_back([&, t] {
            pinToCpu(t);
            nvalloc::VClock::setNow(base);
            VnsArray v0 = nvalloc::VClock::snapshot();
            body(t, clients[t]);
            VnsArray v1 = nvalloc::VClock::snapshot();
            for (unsigned k = 0; k < kNumTimeKinds; ++k) {
                clients[t].vns[k] = v1[k] - v0[k];
                clients[t].vns_total += clients[t].vns[k];
            }
            epoch.observe(nvalloc::VClock::now());
        });
}

Trial runKvTrial(const Options &opt);
Trial runChurnTrial(const Options &opt);

bool isKvWorkload(const std::string &w);
bool isKnownWorkload(const std::string &w);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
