#include "policy/memcache.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

namespace {

/** Tag bytes fetched/written alongside each 64B cache line. */
constexpr uint32_t kTagBytes = 8;

uint64_t
staticBytesFor(const PolicyEnv &env, const MemCacheParams &p)
{
    if (env.nm == nullptr)
        fatal("memcache: near memory required");
    if (p.mem_percent >= 100)
        fatal("memcache: mem_percent must be below 100 (use a flat "
              "scheme for all-memory NM), got %u", p.mem_percent);
    const uint64_t nm = env.nm->capacity();
    uint64_t bytes = nm / 100 * p.mem_percent;
    bytes -= bytes % kLargeBlockSize;
    if (bytes >= nm)
        fatal("memcache: static region swallows all of NM");
    return bytes;
}

} // namespace

MemCachePolicy::MemCachePolicy(PolicyEnv env, MemCacheParams params)
    : FlatMemoryPolicy(env),
      params_(params),
      static_bytes_(staticBytesFor(env, params)),
      dir_((env.nm->capacity() - static_bytes_) / kSubblockSize,
           params.ways)
{
}

uint64_t
MemCachePolicy::flatSpaceBytes() const
{
    // The cache region is not memory: the OS sees the static region
    // and FM.
    return static_bytes_ + env_.fm->capacity();
}

Location
MemCachePolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const Addr sub = subblockAddr(paddr);
    if (sub < static_bytes_)
        return Location{true, sub};
    const uint64_t block = (sub - static_bytes_) >> kSubblockBits;
    const uint64_t slot = dir_.lookup(block);
    if (slot != BlockCacheDir::kNoSlot)
        return Location{true, slotAddr(slot)};
    return fmHome(block);
}

void
MemCachePolicy::fillBlock(uint64_t block, const Location &from,
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
               static_cast<uint32_t>(kSubblockSize) + kTagBytes,
               dram::TrafficClass::Migration, core, now);
    notifyCopy(from, slot_loc);
    if (is_write)
        dir_.markDirty(fill.slot);
    ++fills_;
}

void
MemCachePolicy::demandAccess(Addr paddr, bool is_write, CoreId core,
                             Addr pc, DemandCallback done, Tick now)
{
    const Addr sub = subblockAddr(paddr);
    if (sub < static_bytes_) {
        // Static region: plain NM memory, no tags, no fills.
        recordService(true);
        const Location loc{true, sub};
        issueRead(*env_.nm, loc.device_addr,
                  static_cast<uint32_t>(kSubblockSize),
                  dram::TrafficClass::Demand, core, std::move(done), now);
        notifyDemand(paddr, is_write, core, pc, loc);
        return;
    }

    const uint64_t block = (sub - static_bytes_) >> kSubblockBits;
    const uint32_t burst =
        static_cast<uint32_t>(kSubblockSize) + kTagBytes;
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
MemCachePolicy::writeback(Addr paddr, CoreId core, Tick now)
{
    // An LLC dirty eviction landing in the cache makes the slot dirty;
    // its line must survive the next NM eviction.
    const Addr sub = subblockAddr(paddr);
    if (sub >= static_bytes_) {
        const uint64_t slot =
            dir_.lookup((sub - static_bytes_) >> kSubblockBits);
        if (slot != BlockCacheDir::kNoSlot)
            dir_.markDirty(slot);
    }
    FlatMemoryPolicy::writeback(paddr, core, now);
}

void
MemCachePolicy::checkpoint(Blob &b)
{
    FlatMemoryPolicy::checkpoint(b);
    dir_.checkpoint(b);
    b.u64(fills_);
    b.u64(dirty_evictions_);
}

} // namespace policy
} // namespace silc
