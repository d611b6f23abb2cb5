/**
 * @file
 * nvbench: one trial of one workload. A trial is set-up, a timed phase
 * of a fixed op count, checks, a dirty restart and the checks after
 * recovery; its figures go to stdout, the last line one JSON object:
 *
 *   {"ok": true, "attempted": N, "failed": N, "errors": [...],
 *    "e2e": {name: [value, unit]}, "layer": {...}, "calls": {...}}
 *
 *   nvbench --workload kv_read_mostly|kv_update_heavy|alloc_churn
 *           --seed N --trial I --trace 0|1 [--trace-out FILE]
 *           [--inject stomp|alias]
 *
 * run.py starts one process per trial, so every trial gets a fresh
 * address-space layout and thread placement, and reports medians over
 * the trials of a run. The op count is fixed so a faster program runs
 * more trials, never longer ones. With --trace 1 every benchmark call
 * is wrapped in a span (trace.h) and the span-derived layer figures
 * are filled in.
 *
 * Exit status: 0 when every check and zero-work guard held, 1 when a
 * check failed or a guard found a layer that did no work, 2 on usage
 * errors.
 */

#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "nvbench: %s\nusage: nvbench --workload "
                 "kv_read_mostly|kv_update_heavy|alloc_churn --seed N "
                 "--trial I --trace 0|1 [--trace-out FILE] "
                 "[--inject stomp|alias]\n",
                 why);
    std::exit(2);
}

bool
parseUint(const std::string &v, uint64_t *out)
{
    char *end = nullptr;
    if (v.empty() || v[0] == '-')
        return false;
    *out = std::strtoull(v.c_str(), &end, 10);
    return *end == '\0';
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            have_seed = parseUint(v, &o.seed);
        } else if (a == "--trial") {
            uint64_t t = 0;
            if (!parseUint(v, &t) || t > 1'000'000)
                usage("--trial needs an integer in [0, 1000000]");
            o.trial = unsigned(t);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            o.trace = v == "1";
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else if (a == "--inject") {
            if (v == "stomp")
                o.inject = Inject::Stomp;
            else if (v == "alias")
                o.inject = Inject::Alias;
            else
                usage("--inject must be stomp or alias");
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!isKnownWorkload(o.workload))
        usage("unknown or missing --workload");
    if (!have_seed)
        usage("--seed needs a non-negative integer");
    return o;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

/** The end-to-end set: host wall-clock. Latency pairs are the
 *  workload's two timed calls: get/put on kv_*, small mallocTo/freeFrom
 *  on alloc_churn. */
std::vector<Metric>
endToEnd(const Options &opt, Trial &t)
{
    bool kv = isKvWorkload(opt.workload);
    auto &a = t.samples.ns[unsigned(kv ? Op::KvGet : Op::AllocSmall)];
    auto &b = t.samples.ns[unsigned(kv ? Op::KvPut : Op::FreeSmall)];
    return {
        {"setup_s", t.setup_s, "s"},
        {"throughput_kops", ratio(double(t.ops), t.run_s) / 1e3, "kops/s"},
        {"get_or_alloc_p50_us", quantileUs(a, 0.50), "us"},
        {"get_or_alloc_p99_us", quantileUs(a, 0.99), "us"},
        {"put_or_free_p50_us", quantileUs(b, 0.50), "us"},
        {"put_or_free_p99_us", quantileUs(b, 0.99), "us"},
        {"space_amp", t.space_amp, "ratio"},
        {"recovery_s", t.recovery_s, "s"},
    };
}

/** Every timed call kind under its own name, and the figures that are
 *  shown but not gated. */
std::vector<Metric>
byCall(Trial &t)
{
    static const char *kOpNames[kNumOps] = {
        "get", "put", "alloc", "alloc_large", "free", "free_large"};
    std::vector<Metric> m;
    for (unsigned o = 0; o < kNumOps; ++o) {
        auto &v = t.samples.ns[o];
        if (v.empty())
            continue;
        std::string base = kOpNames[o];
        m.push_back({base + "_p50_us", quantileUs(v, 0.50), "us"});
        m.push_back({base + "_p99_us", quantileUs(v, 0.99), "us"});
        m.push_back({base + "_calls", double(v.size()), "count"});
    }
    m.push_back({"vthroughput_mops", t.vthroughput_mops, "Mops/vs"});
    return m;
}

/** Per-layer set for one trial: ctl deltas and VClock deltas of the
 *  timed phase, large().stats(), the recovery figures, and — when the
 *  trial is traced — span busy time and per-call virtual ns. */
std::vector<Metric>
perLayer(Trial &t)
{
    using nvalloc::TimeKind;
    using trace::Name;
    std::vector<Metric> m;
    double ops = double(t.ops);
    auto calls = [&](Op o) { return double(t.samples.ns[unsigned(o)].size()); };
    auto ctr = [&](const char *name) {
        auto it = t.run_ctr.find(name);
        return it == t.run_ctr.end() ? 0.0 : it->second;
    };
    auto rec = [&](const char *name) {
        auto it = t.recovery_ctr.find(name);
        return it == t.recovery_ctr.end() ? 0.0 : it->second;
    };
    auto spans = trace::aggregates();
    auto usPerCall = [&](Name nm) {
        const trace::Agg &a = spans[unsigned(nm)];
        return ratio(double(a.busy_ns), double(a.count)) / 1e3;
    };
    auto vnsPerCall = [&](Name nm, TimeKind k) {
        const trace::Agg &a = spans[unsigned(nm)];
        double v = 0;
        for (unsigned i = 0; i < kNumTimeKinds; ++i)
            if (k == TimeKind::NumKinds || i == unsigned(k))
                v += double(a.vns[i]);
        return ratio(v, double(a.count));
    };

    // kv
    m.push_back({"kv.get.us_per_call", usPerCall(Name::KvGet), "us"});
    m.push_back({"kv.get.value_bytes_per_call",
                 ratio(t.get_value_bytes, calls(Op::KvGet)), "B"});
    m.push_back({"kv.get.hit_ratio",
                 ratio(ctr("kv.hits"), ctr("kv.gets")), "ratio"});
    m.push_back({"kv.max_chain", t.max_chain, "count"});
    m.push_back({"kv.get.vns_per_call",
                 vnsPerCall(Name::KvGet, TimeKind::NumKinds), "vns"});
    m.push_back({"kv.put.us_per_call", usPerCall(Name::KvPut), "us"});
    m.push_back({"kv.get.p999_us",
                 quantileUs(t.samples.ns[unsigned(Op::KvGet)], 0.999),
                 "us"});
    // tx / wal
    m.push_back({"tx.commits_per_put",
                 ratio(ctr("tx.commits"), calls(Op::KvPut)), "ratio"});
    m.push_back({"tx.ops_per_commit",
                 ratio(ctr("tx.ops_alloc") + ctr("tx.ops_free") +
                           ctr("tx.ops_write"),
                       ctr("tx.commits")),
                 "ratio"});
    m.push_back({"tx.aborts", ctr("tx.aborts"), "count"});
    m.push_back({"wal.commits_per_op", ratio(ctr("wal.commits"), ops),
                 "ratio"});
    m.push_back({"pm.vns.flush_wal_per_op",
                 ratio(double(t.run_vns[unsigned(TimeKind::FlushWal)]), ops),
                 "vns"});
    // alloc.small
    m.push_back({"alloc.small.us_per_call", usPerCall(Name::AllocSmall),
                 "us"});
    m.push_back({"free.small.us_per_call", usPerCall(Name::FreeSmall),
                 "us"});
    m.push_back({"alloc.small.tcache_hit_ratio",
                 ratio(ctr("tcache.hit"), ctr("alloc.small")), "ratio"});
    m.push_back({"alloc.small.fastpath_hit_ratio",
                 ratio(ctr("fastpath.reserve_hits"),
                       ctr("fastpath.reserve_hits") +
                           ctr("fastpath.reserve_misses")),
                 "ratio"});
    m.push_back({"alloc.small.cas_retries_per_op",
                 ratio(ctr("fastpath.cas_retries"), ctr("alloc.small")),
                 "ratio"});
    m.push_back({"alloc.small.region_steals", ctr("fastpath.region_steals"),
                 "count"});
    m.push_back({"alloc.small.locked_fallbacks",
                 ctr("fastpath.locked_fallbacks"), "count"});
    m.push_back({"alloc.small.refills_per_kop",
                 ratio(ctr("slab.refills"), ops) * 1e3, "count/kop"});
    m.push_back({"alloc.small.morphs", ctr("slab.morphs"), "count"});
    // alloc.large / log
    m.push_back({"alloc.large.us_per_call", usPerCall(Name::AllocLarge),
                 "us"});
    m.push_back({"alloc.large.p99_us",
                 quantileUs(t.samples.ns[unsigned(Op::AllocLarge)], 0.99),
                 "us"});
    m.push_back({"free.large.us_per_call", usPerCall(Name::FreeLarge),
                 "us"});
    m.push_back({"alloc.large.splits", ctr("large.splits"), "count"});
    m.push_back({"alloc.large.coalesces", ctr("large.coalesces"),
                 "count"});
    m.push_back({"alloc.large.demotions", ctr("large.demotions"),
                 "count"});
    m.push_back({"alloc.large.evictions", ctr("large.evictions"),
                 "count"});
    m.push_back({"alloc.large.vns_search_per_call",
                 vnsPerCall(Name::AllocLarge, TimeKind::Search), "vns"});
    m.push_back({"alloc.large.vns_lockwait_per_call",
                 vnsPerCall(Name::AllocLarge, TimeKind::LockWait), "vns"});
    m.push_back({"log.appends_per_op", ratio(ctr("log.appends"), ops),
                 "ratio"});
    m.push_back({"log.fast_gc", ctr("log.fast_gc"), "count"});
    m.push_back({"log.slow_gc", ctr("log.slow_gc"), "count"});
    m.push_back({"log.entries_copied", ctr("log.entries_copied"),
                 "count"});
    m.push_back({"log.gc_vns", ctr("log.gc_ns"), "vns"});
    // pm
    double flushes = ctr("flush.total");
    m.push_back({"pm.flushes_per_op", ratio(flushes, ops), "ratio"});
    m.push_back({"pm.fences_per_op", ratio(ctr("flush.fences"), ops),
                 "ratio"});
    m.push_back({"pm.reflush_ratio", ratio(ctr("flush.reflush"), flushes),
                 "ratio"});
    m.push_back({"pm.seq_ratio", ratio(ctr("flush.sequential"), flushes),
                 "ratio"});
    m.push_back({"pm.xpline_hit_ratio",
                 ratio(ctr("flush.xpline_hit"), flushes), "ratio"});
    static const char *kKinds[kNumTimeKinds] = {
        "flush_meta", "flush_wal", "flush_log", "flush_data", "fence",
        "search",     "pm_read",   "lock_wait", "other"};
    for (unsigned k = 0; k < kNumTimeKinds; ++k)
        m.push_back({std::string("pm.vns_per_op.") + kKinds[k],
                     ratio(double(t.run_vns[k]), ops), "vns"});
    m.push_back({"pm.vthroughput_mops", t.vthroughput_mops, "Mops/vs"});
    // maintenance
    m.push_back({"maintenance.slices", ctr("maintenance.slices"), "count"});
    m.push_back({"maintenance.wakes", ctr("maintenance.wakes"), "count"});
    m.push_back({"maintenance.deferred", ctr("maintenance.deferred"),
                 "count"});
    m.push_back({"maintenance.vns", ctr("maintenance.virtual_ns"), "vns"});
    m.push_back({"maintenance.gc_vns", ctr("maintenance.gc_virtual_ns"),
                 "vns"});
    // recovery
    m.push_back({"recovery.heap_open_s", t.heap_open_s, "s"});
    m.push_back({"recovery.kv_open_s", t.kv_open_s, "s"});
    m.push_back({"recovery.vns", t.recovery_vns, "vns"});
    m.push_back({"recovery.wal_completions",
                 rec("recovery.wal_completions"), "count"});
    m.push_back({"recovery.rebuilt_records", rec("kv.rebuilt_records"),
                 "count"});
    // heap
    m.push_back({"heap.committed_mb", t.committed_mb, "MiB"});
    m.push_back({"heap.peak_committed_mb", t.peak_committed_mb, "MiB"});
    // the benchmark's own share of the timed phase
    const trace::Agg &run = spans[unsigned(Name::PhaseRun)];
    m.push_back({"bench.run_self_pct",
                 100 * ratio(double(run.self_ns), double(run.busy_ns)),
                 "%"});
    return m;
}

/** Zero-work guard: every layer the workload is meant to exercise must
 *  show work, or the trial fails. Returns the layers that did none. */
std::vector<std::string>
idleLayers(const Options &opt, const Trial &t)
{
    auto calls = [&](Op o) { return double(t.samples.ns[unsigned(o)].size()); };
    auto ctr = [&](const char *name) {
        auto it = t.run_ctr.find(name);
        return it == t.run_ctr.end() ? 0.0 : it->second;
    };
    double vns = 0;
    for (uint64_t v : t.run_vns)
        vns += double(v);
    std::vector<std::pair<std::string, double>> need = {
        {"stats.flush.total", ctr("flush.total")},
        {"stats.wal.commits", ctr("wal.commits")},
        {"stats.log.appends", ctr("log.appends")},
        {"stats.alloc.small", ctr("alloc.small")},
        {"virtual time of the timed phase", vns},
    };
    if (isKvWorkload(opt.workload)) {
        need.push_back({"kv.get calls", calls(Op::KvGet)});
        need.push_back({"kv.put calls", calls(Op::KvPut)});
        need.push_back({"stats.kv.gets", ctr("kv.gets")});
        need.push_back({"stats.tx.commits", ctr("tx.commits")});
    } else {
        need.push_back({"alloc.small calls", calls(Op::AllocSmall)});
        need.push_back({"free.small calls", calls(Op::FreeSmall)});
        need.push_back({"alloc.large calls", calls(Op::AllocLarge)});
        need.push_back({"free.large calls", calls(Op::FreeLarge)});
        need.push_back({"stats.alloc.large", ctr("alloc.large")});
    }
    if (opt.workload == "kv_update_heavy") {
        need.push_back({"stats.maintenance.slices",
                        ctr("maintenance.slices")});
        need.push_back({"stats.alloc.large", ctr("alloc.large")});
    }
    std::vector<std::string> idle;
    for (auto &[what, v] : need)
        if (!(v > 0))
            idle.push_back(what);
    return idle;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
printGroup(const char *key, const std::vector<Metric> &ms)
{
    std::printf(", \"%s\": {", key);
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": [%.17g, \"%s\"]", i ? ", " : "",
                    ms[i].name.c_str(), ms[i].value, ms[i].unit);
    std::printf("}");
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("# %s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value,
                    m.unit);
}

int
run(const Options &opt)
{
    trace::setEnabled(opt.trace);
    Trial t = isKvWorkload(opt.workload) ? runKvTrial(opt)
                                         : runChurnTrial(opt);
    trace::setEnabled(false);

    for (const std::string &e : t.errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    std::vector<std::string> idle;
    if (t.failed == 0)
        idle = idleLayers(opt, t);
    for (const std::string &l : idle)
        std::printf("ZERO-WORK GUARD: %s is 0 on %s\n", l.c_str(),
                    opt.workload.c_str());
    bool ok = t.failed == 0 && idle.empty();

    std::vector<Metric> e2e = endToEnd(opt, t);
    std::vector<Metric> calls = byCall(t);
    std::vector<Metric> layer = perLayer(t);
    std::printf("# %s seed %llu trial %u%s: %llu ops timed, %llu "
                "attempted, %llu failed\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.trial, opt.trace ? " (traced)" : "",
                (unsigned long long)t.ops, (unsigned long long)t.attempted,
                (unsigned long long)t.failed);
    printTable("end-to-end (host wall-clock)", e2e);
    printTable("by call", calls);
    printTable("per layer", layer);

    if (opt.trace && !opt.trace_out.empty() &&
        !trace::writeChromeJson(opt.trace_out))
        std::fprintf(stderr, "nvbench: cannot write %s\n",
                     opt.trace_out.c_str());

    std::printf("{\"ok\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"errors\": [",
                ok ? "true" : "false",
                (unsigned long long)(t.attempted + idle.size()),
                (unsigned long long)(t.failed + idle.size()));
    std::vector<std::string> why = t.errors;
    for (const std::string &l : idle)
        why.push_back("zero-work guard: " + l);
    for (size_t i = 0; i < why.size(); ++i)
        std::printf("%s%s", i ? ", " : "", jsonString(why[i]).c_str());
    std::printf("]");
    printGroup("e2e", e2e);
    printGroup("calls", calls);
    printGroup("layer", layer);
    std::printf("}\n");
    return ok ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::run(perfbench::parseArgs(argc, argv));
}
