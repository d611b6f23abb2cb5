#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace {

namespace {

/** Call spans kept verbatim per thread for the trace file; spans past
 *  the cap still count in the aggregates. */
constexpr size_t kKeepPerThread = 20'000;

struct Record
{
    uint64_t id, parent;
    uint64_t start_ns, end_ns;
    VnsArray vns;
    Name name;
};

struct Frame
{
    uint64_t id;
    uint64_t start_ns;
    uint64_t child_ns;
    VnsArray vns0;
    Name name;
};

struct ThreadBuf
{
    unsigned tid = 0;
    uint64_t next_id = 1;
    std::vector<Frame> stack;
    std::vector<Record> kept;
    uint64_t dropped = 0;
    unsigned run_depth = 0; //!< open phase.run spans
    std::array<Agg, kNumNames> agg; //!< timed-phase spans only
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs; // guarded by g_mu
thread_local ThreadBuf *t_buf = nullptr;

ThreadBuf &
threadBuf()
{
    if (!t_buf) {
        std::lock_guard<std::mutex> g(g_mu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        t_buf = g_bufs.back().get();
        t_buf->tid = unsigned(g_bufs.size());
    }
    return *t_buf;
}

} // namespace

const char *
nameOf(Name n)
{
    switch (n) {
    case Name::PhaseSetup: return "phase.setup";
    case Name::PhaseRun: return "phase.run";
    case Name::KvGet: return "kv.get";
    case Name::KvPut: return "kv.put";
    case Name::AllocSmall: return "alloc.small";
    case Name::AllocLarge: return "alloc.large";
    case Name::FreeSmall: return "free.small";
    case Name::FreeLarge: return "free.large";
    case Name::RecoveryHeapOpen: return "recovery.heap_open";
    case Name::RecoveryKvOpen: return "recovery.kv_open";
    case Name::CheckVerify: return "check.verify";
    case Name::CheckAudit: return "check.audit";
    case Name::NumNames: break;
    }
    return "?";
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

Span::Span(Name n) : active_(enabled())
{
    if (!active_)
        return;
    ThreadBuf &b = threadBuf();
    if (n == Name::PhaseRun)
        ++b.run_depth;
    b.stack.push_back(
        Frame{b.next_id++, 0, 0, nvalloc::VClock::snapshot(), n});
    b.stack.back().start_ns = hostNs();
}

Span::~Span()
{
    if (!active_)
        return;
    uint64_t end = hostNs();
    VnsArray vns1 = nvalloc::VClock::snapshot();
    ThreadBuf &b = *t_buf;
    Frame f = b.stack.back();
    b.stack.pop_back();
    uint64_t dur = end - f.start_ns;
    if (!b.stack.empty())
        b.stack.back().child_ns += dur;

    Record r{f.id, b.stack.empty() ? 0 : b.stack.back().id, f.start_ns,
             end, {}, f.name};
    for (unsigned k = 0; k < kNumTimeKinds; ++k)
        r.vns[k] = vns1[k] - f.vns0[k];

    if (b.run_depth > 0) {
        Agg &a = b.agg[unsigned(f.name)];
        ++a.count;
        a.busy_ns += dur;
        a.self_ns += dur - f.child_ns;
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            a.vns[k] += r.vns[k];
    }
    if (f.name == Name::PhaseRun)
        --b.run_depth;

    // Phase spans close last, after the cap has filled; keep them so
    // the file always shows the phases its call spans belong to.
    if (b.kept.size() < kKeepPerThread || f.name == Name::PhaseRun ||
        f.name == Name::PhaseSetup)
        b.kept.push_back(r);
    else
        ++b.dropped;
}

std::array<Agg, kNumNames>
aggregates()
{
    std::array<Agg, kNumNames> out;
    std::lock_guard<std::mutex> g(g_mu);
    for (auto &b : g_bufs) {
        for (unsigned n = 0; n < kNumNames; ++n) {
            const Agg &s = b->agg[n];
            Agg &d = out[n];
            d.count += s.count;
            d.busy_ns += s.busy_ns;
            d.self_ns += s.self_ns;
            for (unsigned k = 0; k < kNumTimeKinds; ++k)
                d.vns[k] += s.vns[k];
        }
    }
    return out;
}

bool
writeChromeJson(const std::string &path)
{
    static const char *kKindNames[kNumTimeKinds] = {
        "flush_meta", "flush_wal", "flush_log", "flush_data", "fence",
        "search",     "pm_read",   "lock_wait", "other"};
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> g(g_mu);
    uint64_t t0 = UINT64_MAX;
    for (auto &b : g_bufs)
        for (const Record &r : b->kept)
            t0 = std::min(t0, r.start_ns);
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (auto &b : g_bufs) {
        for (const Record &r : b->kept) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%llu,\"parent\":%llu",
                         first ? "" : ",", nameOf(r.name), b->tid,
                         double(r.start_ns - t0) / 1e3,
                         double(r.end_ns - r.start_ns) / 1e3,
                         (unsigned long long)r.id,
                         (unsigned long long)r.parent);
            for (unsigned k = 0; k < kNumTimeKinds; ++k)
                if (r.vns[k])
                    std::fprintf(f, ",\"vns.%s\":%llu", kKindNames[k],
                                 (unsigned long long)r.vns[k]);
            std::fprintf(f, "}}");
            first = false;
        }
    }
    std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":[");
    for (size_t i = 0; i < g_bufs.size(); ++i)
        std::fprintf(f, "%s%llu", i ? "," : "",
                     (unsigned long long)g_bufs[i]->dropped);
    std::fprintf(f, "]}}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench::trace
