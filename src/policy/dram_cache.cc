#include "policy/dram_cache.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

DramCachePolicy::DramCachePolicy(PolicyEnv env, DramCacheParams params)
    : DramCachePolicy(env, params,
                      env.nm != nullptr
                          ? env.nm->capacity() / kSubblockSize
                          : 0)
{
}

DramCachePolicy::DramCachePolicy(PolicyEnv env, DramCacheParams params,
                                 uint64_t slots)
    : FlatMemoryPolicy(env), params_(params), dir_(slots, params.ways)
{
    silc_assert(env_.nm != nullptr);
}

uint64_t
DramCachePolicy::flatSpaceBytes() const
{
    // NM is a cache, not memory: the OS sees FM alone.
    return env_.fm->capacity();
}

Location
DramCachePolicy::fmHome(uint64_t block) const
{
    return Location{false, block * kSubblockSize};
}

Addr
DramCachePolicy::slotAddr(uint64_t slot) const
{
    return slot * kSubblockSize;
}

uint64_t
DramCachePolicy::cachedBlockOf(Addr sub) const
{
    return sub >> kSubblockBits;
}

Location
DramCachePolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const Addr sub = subblockAddr(paddr);
    const uint64_t slot = dir_.lookup(sub >> kSubblockBits);
    if (slot != BlockCacheDir::kNoSlot)
        return Location{true, slotAddr(slot)};
    return Location{false, sub};
}

void
DramCachePolicy::fillBlock(uint64_t block, const Location &from,
                           bool is_write, CoreId core, Tick now)
{
    const BlockCacheDir::Fill fill = dir_.install(block);
    const Location slot_loc{true, slotAddr(fill.slot)};
    if (fill.evicted != BlockCacheDir::kNoBlock && fill.evicted_dirty) {
        // Dirty victim: copy its line back to its FM home before the
        // install overwrites the slot.  Clean victims are dropped for
        // free — their home copy is current.
        moveSubblock(slot_loc, fmHome(fill.evicted), core, now);
        ++dirty_evictions_;
    }
    // The demand read already carries the line toward the LLC; the
    // install write (data + tag) is the only extra traffic.
    ++migration_ops_;
    issueWrite(*env_.nm, slot_loc.device_addr,
               static_cast<uint32_t>(kSubblockSize) + params_.tag_bytes,
               dram::TrafficClass::Migration, core, now);
    notifyCopy(from, slot_loc);
    if (is_write)
        dir_.markDirty(fill.slot);
    ++fills_;
}

void
DramCachePolicy::cacheDemand(uint64_t block, Addr paddr, bool is_write,
                             CoreId core, Addr pc, DemandCallback done,
                             Tick now)
{
    const uint32_t burst =
        static_cast<uint32_t>(kSubblockSize) + params_.tag_bytes;
    const uint64_t slot = dir_.lookup(block);

    if (slot != BlockCacheDir::kNoSlot) {
        // Hit: tag and data arrive in one extended NM burst.
        recordService(true);
        if (is_write)
            dir_.markDirty(slot);
        const Location loc{true, slotAddr(slot)};
        issueRead(*env_.nm, loc.device_addr, burst,
                  dram::TrafficClass::Demand, core, std::move(done), now);
        notifyDemand(paddr, is_write, core, pc, loc);
        return;
    }

    // Miss: the TAD probe read the candidate way for nothing; the FM
    // fetch returns the demand line in parallel (Alloy's memory-access
    // predictor idealised as always-correct).
    recordService(false);
    const Location home = fmHome(block);
    issueRead(*env_.nm, slotAddr(dir_.victimSlot(block)), burst,
              dram::TrafficClass::Metadata, core, nullptr, now);
    issueRead(*env_.fm, home.device_addr,
              static_cast<uint32_t>(kSubblockSize),
              dram::TrafficClass::Demand, core, std::move(done), now);
    if (!is_write || params_.fill_on_write)
        fillBlock(block, home, is_write, core, now);
    notifyDemand(paddr, is_write, core, pc, home);
}

void
DramCachePolicy::demandAccess(Addr paddr, bool is_write, CoreId core,
                              Addr pc, DemandCallback done, Tick now)
{
    const Addr sub = subblockAddr(paddr);
    cacheDemand(cachedBlockOf(sub), paddr, is_write, core, pc,
                std::move(done), now);
}

void
DramCachePolicy::writeback(Addr paddr, CoreId core, Tick now)
{
    // An LLC dirty eviction landing in the cache makes the slot dirty;
    // its line must survive the next NM eviction.
    const uint64_t block = cachedBlockOf(subblockAddr(paddr));
    if (block != BlockCacheDir::kNoBlock) {
        const uint64_t slot = dir_.lookup(block);
        if (slot != BlockCacheDir::kNoSlot)
            dir_.markDirty(slot);
    }
    FlatMemoryPolicy::writeback(paddr, core, now);
}

void
DramCachePolicy::snapshotState(BlobWriter &w) const
{
    FlatMemoryPolicy::snapshotState(w);
    dir_.snapshot(w);
    w.putU64(fills_);
    w.putU64(dirty_evictions_);
}

void
DramCachePolicy::restoreState(BlobReader &r)
{
    FlatMemoryPolicy::restoreState(r);
    dir_.restore(r);
    fills_ = r.getU64();
    dirty_evictions_ = r.getU64();
}

} // namespace policy
} // namespace silc
