/**
 * @file
 * Benchmark-side spans: host start/end, parent and the virtual-time
 * delta (by TimeKind) of each call the benchmark makes into a layer.
 *
 * Spans are kept in per-thread in-memory buffers; those of the timed
 * phase are also folded into per-name aggregates (count, busy and self
 * time, virtual ns by kind) as they close; the buffers are written out as Chrome trace-event JSON
 * when the run ends. With tracing off a Span costs one relaxed load.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench::trace {

enum class Name : uint8_t
{
    PhaseSetup = 0,
    PhaseRun,
    KvGet,
    KvPut,
    AllocSmall,
    AllocLarge,
    FreeSmall,
    FreeLarge,
    RecoveryHeapOpen,
    RecoveryKvOpen,
    CheckVerify,
    CheckAudit,
    NumNames,
};
constexpr unsigned kNumNames = unsigned(Name::NumNames);

const char *nameOf(Name n);

/** Turn span recording on or off for spans opened from now on. */
void setEnabled(bool on);
bool enabled();

/** One span per object lifetime, nested by scope on its thread. */
class Span
{
  public:
    explicit Span(Name n);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_;
};

/** Per-name totals over every closed span on every thread. */
struct Agg
{
    uint64_t count = 0;
    uint64_t busy_ns = 0; //!< sum of span durations
    uint64_t self_ns = 0; //!< busy minus time covered by child spans
    VnsArray vns{};       //!< virtual ns charged inside the spans
};

/** Totals of the spans closed inside a phase.run span on their thread
 *  (phase.run included): timed-phase calls, not set-up or checks. */
std::array<Agg, kNumNames> aggregates();

/** Write every buffered span as Chrome trace-event JSON; returns false
 *  if the file cannot be written. */
bool writeChromeJson(const std::string &path);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_H
