#include "policy/hma.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace silc {
namespace policy {

HmaPolicy::HmaPolicy(PolicyEnv env, HmaParams params)
    : FlatMemoryPolicy(env), params_(params)
{
    silc_assert(env_.nm != nullptr);
    nm_pages_ = env_.nm->capacity() / kLargeBlockSize;
    // The page<->frame maps hold 32-bit indices; guard the casts rather
    // than silently truncating page numbers past 8 TiB of flat space.
    const uint64_t total_pages = flatSpaceBytes() / kLargeBlockSize;
    if (total_pages > ~uint32_t(0))
        fatal("hma: %llu pages exceed the 32-bit page/frame indices "
              "(flat space above 8 TiB)",
              static_cast<unsigned long long>(total_pages));
    // The epoch finds hot pages among the counted ones only.
    if (params_.hot_threshold == 0)
        fatal("hma: hot_threshold must be at least 1");
    next_epoch_ = params_.epoch_ticks;
}

uint64_t
HmaPolicy::flatSpaceBytes() const
{
    return env_.nm->capacity() + env_.fm->capacity();
}

Location
HmaPolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const Addr sub = subblockAddr(paddr);
    const uint64_t page = sub >> kLargeBlockBits;
    const Addr offset = sub & (kLargeBlockSize - 1);
    const Addr frame_addr =
        static_cast<Addr>(frameOf(page)) * kLargeBlockSize + offset;
    return identityLocation(frame_addr);
}

void
HmaPolicy::demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                        DemandCallback done, Tick now)
{
    const uint64_t page = paddr >> kLargeBlockBits;
    uint32_t &c = counts_.getOrCreate(page);
    if (c < ~uint32_t(0))
        ++c;

    const Location loc = locate(paddr);
    recordService(loc.in_nm);

    if (now < os_busy_until_) {
        // The OS is mid-migration: PTE updates and TLB shootdowns stall
        // demand translation until the epoch work finishes.
        dram::DramSystem *dev = &deviceFor(loc);
        env_.events->schedule(
            os_busy_until_,
            [this, dev, loc, core, done = std::move(done)](Tick t) mutable {
                issueRead(*dev, loc.device_addr,
                          static_cast<uint32_t>(kSubblockSize),
                          dram::TrafficClass::Demand, core,
                          std::move(done), t);
            });
        notifyDemand(paddr, is_write, core, pc, loc);
        return;
    }

    issueRead(deviceFor(loc), loc.device_addr,
              static_cast<uint32_t>(kSubblockSize),
              dram::TrafficClass::Demand, core, std::move(done), now);
    notifyDemand(paddr, is_write, core, pc, loc);
}

void
HmaPolicy::swapPages(uint64_t page_a, uint64_t page_b, Tick now)
{
    const uint32_t fa = frameOf(page_a);
    const uint32_t fb = frameOf(page_b);

    // 2KB in each direction.
    for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
        const Addr off = static_cast<Addr>(s) * kSubblockSize;
        const Location la = identityLocation(
            static_cast<Addr>(fa) * kLargeBlockSize + off);
        const Location lb = identityLocation(
            static_cast<Addr>(fb) * kLargeBlockSize + off);
        swapSubblocks(la, lb, 0, now);
    }

    frame_of_.set(page_a, fb);
    frame_of_.set(page_b, fa);
    page_at_.set(fa, static_cast<uint32_t>(page_b));
    page_at_.set(fb, static_cast<uint32_t>(page_a));
}

void
HmaPolicy::runEpoch(Tick now)
{
    ++epochs_;

    // Pages travel with their counts as (count, page): each sort
    // compares counts only, so it makes exactly the moves that comparing
    // the pages' counts would, without a table lookup per comparison.
    using Counted = std::pair<uint32_t, uint32_t>;

    // Hot FM-resident pages, hottest first.  Every hot page was
    // counted (hot_threshold >= 1), and the sort is unstable, so its
    // input keeps ascending page order.
    std::vector<Counted> hot;
    counts_.forEachSorted([&](uint64_t p, uint32_t c) {
        if (c >= params_.hot_threshold && frameOf(p) >= nm_pages_)
            hot.emplace_back(c, static_cast<uint32_t>(p));
    });
    std::sort(hot.begin(), hot.end(),
              [](const Counted &a, const Counted &b) {
                  return a.first > b.first;
              });

    // NM-resident pages in ascending frame order, then coldest first
    // (eviction candidates).
    std::vector<Counted> nm_resident;
    nm_resident.reserve(nm_pages_);
    for (uint64_t f = 0; f < nm_pages_; ++f) {
        const uint32_t page = pageAt(f);
        nm_resident.emplace_back(counts_.get(page, 0), page);
    }
    std::sort(nm_resident.begin(), nm_resident.end(),
              [](const Counted &a, const Counted &b) {
                  return a.first < b.first;
              });

    uint32_t migrated = 0;
    size_t victim_idx = 0;
    for (const Counted &h : hot) {
        if (migrated >= params_.max_migrations_per_epoch)
            break;
        if (victim_idx >= nm_resident.size())
            break;
        const Counted &victim = nm_resident[victim_idx];
        // Only evict strictly colder pages.
        if (victim.first >= h.first)
            break;
        swapPages(h.second, victim.second, now);
        ++victim_idx;
        ++migrated;
    }

    pages_migrated_ += migrated;
    if (migrated > 0) {
        os_busy_until_ = now + params_.os_base_overhead +
            static_cast<Tick>(migrated) * params_.os_per_page_overhead;
    }

    // Epoch counters restart.
    counts_.clear();
}

void
HmaPolicy::tick(Tick now)
{
    if (now >= next_epoch_) {
        runEpoch(now);
        next_epoch_ += params_.epoch_ticks;
    }
}

} // namespace policy
} // namespace silc
