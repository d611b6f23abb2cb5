#include "pm/pm_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "common/logging.h"
#include "common/size_classes.h"

namespace nvalloc {

namespace {

char *
mapAnonymous(size_t bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        throw std::system_error(
            errno, std::generic_category(),
            "PmDevice: mmap of emulated PM region failed");
    }
    return static_cast<char *>(p);
}

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) & ~(a - 1);
}

} // namespace

PmDevice::PmDevice(PmDeviceConfig cfg)
    : cfg_(cfg), model_(cfg.latency)
{
    cfg_.size = alignUp(cfg_.size, kRegionAlign);
    base_ = mapAnonymous(cfg_.size);
    if (cfg_.shadow)
        shadow_ = mapAnonymous(cfg_.size);
}

PmDevice::~PmDevice()
{
    ::munmap(base_, cfg_.size);
    if (shadow_)
        ::munmap(shadow_, cfg_.size);
}

uint64_t
PmDevice::mapRegion(size_t bytes)
{
    uint64_t off = tryMapRegion(bytes);
    if (off == 0)
        NV_FATAL("emulated PM device exhausted");
    return off;
}

uint64_t
PmDevice::tryMapRegion(size_t bytes)
{
    bytes = alignUp(bytes, kRegionAlign);
    std::lock_guard<std::mutex> g(region_mutex_);

    // First fit from the recycled regions, splitting oversized holes.
    for (auto it = free_regions_.begin(); it != free_regions_.end(); ++it) {
        if (it->second >= bytes) {
            uint64_t off = it->first;
            size_t rest = it->second - bytes;
            free_regions_.erase(it);
            if (rest)
                free_regions_.emplace(off + bytes, rest);
            mapped_bytes_ += bytes;
            addCommitted(bytes);
            return off;
        }
    }

    uint64_t off = bump_;
    if (off + bytes > cfg_.size)
        return 0;
    bump_ += bytes;
    high_water_ = bump_;
    mapped_bytes_ += bytes;
    addCommitted(bytes);
    return off;
}

void
PmDevice::unmapRegion(uint64_t offset, size_t bytes)
{
    bytes = alignUp(bytes, kRegionAlign);
    NV_ASSERT(offset % kRegionAlign == 0 && offset + bytes <= cfg_.size);

    // Release physical pages; contents must read back as zero if the
    // range is recycled, matching a fresh mmap of a punched hole.
    ::madvise(base_ + offset, bytes, MADV_DONTNEED);
    if (!dropMedia(offset, bytes))
        return; // past the crash point: the recovered heap owns it

    std::lock_guard<std::mutex> g(region_mutex_);
    mapped_bytes_ -= bytes;
    committed_bytes_ -= bytes;

    // Coalesce with neighbours to keep the hole list small.
    auto [it, inserted] = free_regions_.emplace(offset, bytes);
    NV_ASSERT(inserted);
    if (it != free_regions_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            free_regions_.erase(it);
            it = prev;
        }
    }
    auto next = std::next(it);
    if (next != free_regions_.end() &&
        it->first + it->second == next->first) {
        it->second += next->second;
        free_regions_.erase(next);
    }
}

void
PmDevice::persist(const void *addr, size_t len, TimeKind kind)
{
    if (len == 0)
        return;
    uint64_t first = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    uint64_t last = (offsetOf(addr) + len - 1) & ~uint64_t{kCacheLine - 1};
    for (uint64_t line = first; line <= last; line += kCacheLine) {
        model_.onFlush(line, kind);
        if (!shadow_)
            continue;
        if (fi_)
            stageLine(line);
        else
            copyLineWords(shadow_ + line, base_ + line);
    }
}

void
PmDevice::flushLine(const void *addr, TimeKind kind)
{
    uint64_t line = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    model_.onFlush(line, kind);
    if (!shadow_) {
        // No crash simulation: flushes are durable immediately, so a
        // persisted write heals media poison right here.
        if (fi_) {
            std::lock_guard<std::mutex> g(stage_mutex_);
            fi_->clearPoison(line);
        }
        return;
    }
    if (fi_)
        stageLine(line);
    else
        copyLineWords(shadow_ + line, base_ + line);
}

void
PmDevice::fence()
{
    model_.onFence();
    if (!fi_ || !shadow_)
        return;
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (fi_->triggered())
        return; // post-crash-point fence: nothing can commit
    if (fi_->noteFence()) {
        // The scheduled crash point is this fence: its epoch never
        // commits; the policy decides what survives of it.
        freezeAtCrashPoint();
        return;
    }
    for (uint64_t line : staged_)
        commitLine(line);
    staged_.clear();
}

void
PmDevice::stageLine(uint64_t line)
{
    std::lock_guard<std::mutex> g(stage_mutex_);
    if (fi_->triggered())
        return; // post-crash-point flush: lost
    staged_.insert(line);
    if (fi_->noteFlush())
        freezeAtCrashPoint();
}

void
PmDevice::commitLine(uint64_t line)
{
    copyLineWords(shadow_ + line, base_ + line);
    // A persisted write to a poisoned line heals it.
    if (fi_->isPoisoned(line))
        fi_->clearPoison(line);
}

void
PmDevice::freezeAtCrashPoint()
{
    fi_->applyCrashImage(base_, shadow_, high_water_, staged_);
    staged_.clear();
}

void
PmDevice::addCommitted(size_t bytes)
{
    committed_bytes_ += bytes;
    if (committed_bytes_ > peak_committed_)
        peak_committed_ = committed_bytes_;
}

void
PmDevice::decommit(uint64_t offset, size_t bytes)
{
    ::madvise(base_ + offset, bytes, MADV_DONTNEED);
    if (!dropMedia(offset, bytes))
        return;
    std::lock_guard<std::mutex> g(region_mutex_);
    committed_bytes_ -= bytes;
}

bool
PmDevice::dropMedia(uint64_t offset, size_t bytes)
{
    if (!fi_) {
        if (shadow_)
            ::madvise(shadow_ + offset, bytes, MADV_DONTNEED);
        return true;
    }
    std::lock_guard<std::mutex> g(stage_mutex_);
    // Past a scheduled crash point the durable image is frozen: the
    // threads still running are past the power cut, so a release they
    // make must neither zero media nor free space that the recovered
    // heap still owns.
    if (fi_->triggered())
        return false;
    if (shadow_)
        ::madvise(shadow_ + offset, bytes, MADV_DONTNEED);
    // A released range holds no staged flushes, and remapping fresh
    // pages over a poisoned line clears its poison.
    for (uint64_t line = offset; line < offset + bytes;
         line += kCacheLine) {
        staged_.erase(line);
        fi_->clearPoison(line);
    }
    return true;
}

void
PmDevice::recommit(uint64_t offset, size_t bytes)
{
    (void)offset; // pages fault back in on first touch, already zeroed
    std::lock_guard<std::mutex> g(region_mutex_);
    addCommitted(bytes);
}

void
PmDevice::crash()
{
    NV_ASSERT(shadow_ != nullptr);
    if (fi_) {
        std::lock_guard<std::mutex> g(stage_mutex_);
        // Resolve the final unfenced epoch by policy unless a
        // scheduled crash point already froze the durable image.
        if (!fi_->triggered())
            freezeAtCrashPoint();
        fi_->resetAfterCrash();
    }
    // Roll the working image back to the last persisted state. Only
    // the range ever handed out can contain data.
    std::memcpy(base_, shadow_, high_water_);
}

FaultInjector &
PmDevice::faults()
{
    if (!fi_)
        fi_ = std::make_unique<FaultInjector>();
    return *fi_;
}

FaultInjector &
PmDevice::enableFaultInjection(FaultPolicy policy)
{
    NV_ASSERT(shadow_ != nullptr);
    faults().setPolicy(policy);
    return *fi_;
}

void
PmDevice::poisonLine(uint64_t off)
{
    uint64_t line = off & ~uint64_t{kCacheLine - 1};
    NV_ASSERT(line < cfg_.size);
    faults().poison(line);
    std::memset(base_ + line, kPoisonByte, kCacheLine);
    if (shadow_)
        std::memset(shadow_ + line, kPoisonByte, kCacheLine);
}

void
PmDevice::clearPoison(uint64_t off)
{
    if (fi_)
        fi_->clearPoison(off & ~uint64_t{kCacheLine - 1});
}

std::vector<uint64_t>
PmDevice::poisonedLineOffsets() const
{
    std::vector<uint64_t> lines;
    if (fi_) {
        const auto &set = fi_->poisonSet();
        lines.assign(set.begin(), set.end());
        std::sort(lines.begin(), lines.end());
    }
    return lines;
}

bool
PmDevice::isPoisoned(const void *addr, size_t len) const
{
    if (!fi_ || fi_->poisonedLines() == 0 || len == 0)
        return false;
    uint64_t first = offsetOf(addr) & ~uint64_t{kCacheLine - 1};
    uint64_t last = (offsetOf(addr) + len - 1) & ~uint64_t{kCacheLine - 1};
    for (uint64_t line = first; line <= last; line += kCacheLine) {
        if (fi_->isPoisoned(line))
            return true;
    }
    return false;
}

} // namespace nvalloc
