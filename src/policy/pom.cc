#include "policy/pom.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

PomPolicy::PomPolicy(PolicyEnv env, PomParams params)
    : FlatMemoryPolicy(env), params_(params)
{
    silc_assert(env_.nm != nullptr);
    const uint64_t nm_cap = env_.nm->capacity();
    const uint64_t fm_cap = env_.fm->capacity();
    if (fm_cap % nm_cap != 0)
        fatal("pom: FM capacity must be a multiple of NM capacity");

    nm_pages_ = nm_cap / kLargeBlockSize;
    // resident_ stores the occupying member index in uint8_t: the
    // FM:NM ratio must leave members_ - 1 representable, or migrations
    // would silently alias distant group members.
    const uint64_t ratio = fm_cap / nm_cap;
    if (ratio + 1 > 256)
        fatal("pom: FM:NM ratio %llu exceeds the 8-bit member index "
              "(max 255 FM frames per group)",
              static_cast<unsigned long long>(ratio));
    members_ = static_cast<uint32_t>(ratio) + 1;
}

uint64_t
PomPolicy::flatSpaceBytes() const
{
    return env_.nm->capacity() + env_.fm->capacity();
}

Addr
PomPolicy::fmHome(uint64_t g, uint32_t m) const
{
    silc_assert(m >= 1);
    return (g + static_cast<uint64_t>(m - 1) * nm_pages_) *
        kLargeBlockSize;
}

Location
PomPolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const Addr sub = subblockAddr(paddr);
    const uint64_t page = sub >> kLargeBlockBits;
    const Addr offset = sub & (kLargeBlockSize - 1);
    const uint64_t g = groupOf(page);
    const uint32_t m = memberOf(page);
    const uint8_t r = resident(g);

    Location loc;
    if (m == r) {
        // This member holds the NM frame of its group.
        loc.in_nm = true;
        loc.device_addr = g * kLargeBlockSize + offset;
    } else if (m == 0) {
        // The NM-native page was displaced to the resident's FM home.
        loc.in_nm = false;
        loc.device_addr = fmHome(g, r) + offset;
    } else {
        loc.in_nm = false;
        loc.device_addr = fmHome(g, m) + offset;
    }
    return loc;
}

void
PomPolicy::swapFrame(uint64_t g, uint32_t m, CoreId core, Tick now)
{
    // Exchange the 2KB NM frame of group g with member m's FM home:
    // 32 subblocks in each direction.
    const Addr nm_base = g * kLargeBlockSize;
    const Addr fm_base = fmHome(g, m);
    for (uint32_t s = 0; s < kSubblocksPerBlock; ++s) {
        const Addr off = static_cast<Addr>(s) * kSubblockSize;
        swapSubblocks(Location{true, nm_base + off},
                      Location{false, fm_base + off}, core, now);
    }
}

void
PomPolicy::migrate(uint64_t g, uint32_t m, CoreId core, Tick now)
{
    const uint8_t r = resident(g);
    silc_assert(m != r);

    if (r != 0) {
        // Restore the current resident to its FM home first.
        swapFrame(g, r, core, now);
        ++restores_;
    }
    if (m != 0)
        swapFrame(g, m, core, now);
    resident_.set(g, static_cast<uint8_t>(m));
    ++migrations_;

    // Reset the group's competing counters (absent ones are 0).
    for (uint32_t i = 0; i < members_; ++i) {
        if (uint8_t *c = counters_.find(counterKey(g, i)))
            *c = 0;
    }
}

void
PomPolicy::decayCounters()
{
    counters_.forEachMutable([](uint64_t, uint8_t &c) { c >>= 1; });
}

void
PomPolicy::demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                        DemandCallback done, Tick now)
{
    const uint64_t page = paddr >> kLargeBlockBits;
    const uint64_t g = groupOf(page);
    const uint32_t m = memberOf(page);

    const Location loc = locate(paddr);
    recordService(loc.in_nm);
    issueRead(deviceFor(loc), loc.device_addr,
              static_cast<uint32_t>(kSubblockSize),
              dram::TrafficClass::Demand, core, std::move(done), now);

    if (m != resident(g)) {
        uint8_t &ctr = counters_.getOrCreate(counterKey(g, m));
        if (ctr < 255)
            ++ctr;
        if (ctr >= params_.migration_threshold)
            migrate(g, m, core, now);
    }

    if (++accesses_ % params_.decay_interval == 0)
        decayCounters();

    // loc is where the demand data was read from, even when the access
    // just triggered a migration away from it.
    notifyDemand(paddr, is_write, core, pc, loc);
}

void
PomPolicy::checkpoint(Blob &b)
{
    FlatMemoryPolicy::checkpoint(b);
    b.size(nm_pages_, "pom residency table size");
    resident_.checkpoint(b, nm_pages_, "pom residency",
                         [&b](uint8_t &m) { b.u8(m); });
    b.size(nm_pages_ * members_, "pom counter table size");
    counters_.checkpoint(b, nm_pages_ * members_, "pom counter",
                         [&b](uint8_t &c) { b.u8(c); });
    b.u64(accesses_);
    b.u64(migrations_);
    b.u64(restores_);
}

} // namespace policy
} // namespace silc
