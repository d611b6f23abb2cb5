/**
 * @file
 * Dotted-name introspection registry (mallctl-style).
 *
 * Statistics are exported as a tree of dotted names —
 * "stats.arena.0.flush.reflush", "stats.tcache.hit" — each mapping to
 * a reader function that computes the value on demand. The registry
 * is built once (by nvalloc/stats.cc for a heap) and then served
 * read-only: lookups are a map find, the whole tree can be walked for
 * a JSON snapshot, and prefixes can be enumerated for CLI discovery.
 *
 * Names must form a proper tree: a name cannot be both a leaf and an
 * interior node ("stats.flush" and "stats.flush.total" cannot both be
 * registered). registerName asserts this in debug builds; json()
 * relies on it.
 */

#ifndef NVALLOC_TELEMETRY_CTL_H
#define NVALLOC_TELEMETRY_CTL_H

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nvalloc {

enum class CtlStatus
{
    Ok = 0,
    UnknownName,
};

class CtlRegistry
{
  public:
    using Reader = std::function<uint64_t()>;

    /** Register a leaf. Later registrations of the same name win
     *  (callers build the registry single-threaded). */
    void registerName(std::string name, Reader reader);

    /** Look `name` up and read its current value. */
    CtlStatus read(std::string_view name, uint64_t &out) const;

    bool
    contains(std::string_view name) const
    {
        return entries_.find(name) != entries_.end();
    }

    size_t size() const { return entries_.size(); }

    /** All registered names with `prefix` (sorted); empty prefix
     *  yields everything. A prefix matches whole components only:
     *  "stats.flush" matches "stats.flush.total", not
     *  "stats.flushes". */
    std::vector<std::string> names(std::string_view prefix = {}) const;

    /**
     * Serialize the leaves under `prefix` as nested JSON objects,
     * splitting names on dots: {"stats":{"flush":{"total":123,...}}}.
     * The prefix matches whole components, as in names(); an empty
     * prefix serializes the whole tree and an unmatched one yields {}.
     * Leaves keep their full path, so a filtered document is a
     * subtree of the whole one.
     */
    std::string json(std::string_view prefix = {}) const;

    /** As json(prefix), over the union of several prefixes' leaves. */
    std::string json(std::initializer_list<std::string_view> prefixes) const;

  private:
    std::map<std::string, Reader, std::less<>> entries_;
};

} // namespace nvalloc

#endif // NVALLOC_TELEMETRY_CTL_H
