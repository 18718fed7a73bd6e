#include "policy/cameo.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

namespace {

/** Extra bytes fetched per NM access for the in-row LLT entry. */
constexpr uint32_t kLltBytes = 8;

} // namespace

CameoPolicy::CameoPolicy(PolicyEnv env, CameoParams params)
    : FlatMemoryPolicy(env), params_(params)
{
    silc_assert(env_.nm != nullptr);
    const uint64_t nm_cap = env_.nm->capacity();
    const uint64_t fm_cap = env_.fm->capacity();
    if (fm_cap % nm_cap != 0)
        fatal("cameo: FM capacity must be a multiple of NM capacity");

    nm_blocks_ = nm_cap / kSubblockSize;
    // perm_ stores slot indices in uint8_t: members_ - 1 must fit, or
    // the cast below would silently alias congruence-group members.
    const uint64_t ratio = fm_cap / nm_cap;
    if (ratio + 1 > 256)
        fatal("cameo: FM:NM ratio %llu exceeds the 8-bit slot index "
              "(max 255 FM segments per congruence group)",
              static_cast<unsigned long long>(ratio));
    members_ = static_cast<uint32_t>(ratio) + 1;
    if (params_.llp_entries != 0) {
        if (!isPowerOf2(params_.llp_entries))
            fatal("cameo: LLP entries must be a power of two");
        llp_.assign(params_.llp_entries, 1);   // cold lines are in FM
    }
    perm_.resize(nm_blocks_ * members_);
    for (uint64_t g = 0; g < nm_blocks_; ++g) {
        for (uint32_t m = 0; m < members_; ++m)
            perm_[g * members_ + m] = static_cast<uint8_t>(m);
    }
}

uint64_t
CameoPolicy::flatSpaceBytes() const
{
    return env_.nm->capacity() + env_.fm->capacity();
}

uint8_t &
CameoPolicy::slotOf(uint64_t g, uint32_t m)
{
    return perm_[g * members_ + m];
}

uint8_t
CameoPolicy::slotOf(uint64_t g, uint32_t m) const
{
    return perm_[g * members_ + m];
}

Location
CameoPolicy::slotLocation(uint64_t g, uint8_t slot) const
{
    Location loc;
    if (slot == 0) {
        loc.in_nm = true;
        loc.device_addr = g * kSubblockSize;
    } else {
        loc.in_nm = false;
        loc.device_addr =
            (g + static_cast<uint64_t>(slot - 1) * nm_blocks_) *
            kSubblockSize;
    }
    return loc;
}

uint32_t
CameoPolicy::memberAtSlot(uint64_t g, uint8_t slot) const
{
    for (uint32_t m = 0; m < members_; ++m) {
        if (slotOf(g, m) == slot)
            return m;
    }
    panic("cameo: group %llu has no member at slot %u",
          static_cast<unsigned long long>(g), slot);
}

uint64_t
CameoPolicy::llpIndex(uint64_t block) const
{
    uint64_t x = block ^ (block >> 15);
    return x & (params_.llp_entries - 1);
}

Location
CameoPolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const uint64_t block = paddr >> kSubblockBits;
    const uint64_t g = groupOf(block);
    const uint32_t m = memberOf(block);
    return slotLocation(g, slotOf(g, m));
}

void
CameoPolicy::swapIntoNm(uint64_t block, CoreId core, Tick now)
{
    const uint64_t g = groupOf(block);
    const uint32_t m = memberOf(block);
    const uint8_t slot = slotOf(g, m);
    silc_assert(slot != 0);

    const uint32_t evicted = memberAtSlot(g, 0);
    const Location nm_loc = slotLocation(g, 0);
    const Location fm_loc = slotLocation(g, slot);

    // The requested block's data is in flight to the LLC already; the
    // swap writes it into the NM slot (extended burst carries the
    // updated LLT) and moves the old NM occupant to the vacated FM slot.
    issueWrite(*env_.nm, nm_loc.device_addr,
               static_cast<uint32_t>(kSubblockSize) + kLltBytes,
               dram::TrafficClass::Migration, core, now);
    issueWrite(*env_.fm, fm_loc.device_addr,
               static_cast<uint32_t>(kSubblockSize),
               dram::TrafficClass::Migration, core, now);

    notifySwap(nm_loc, fm_loc);
    slotOf(g, m) = 0;
    slotOf(g, evicted) = slot;
    ++swaps_;
}

void
CameoPolicy::demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                          DemandCallback done, Tick now)
{
    const uint64_t block = paddr >> kSubblockBits;
    const uint64_t g = groupOf(block);
    const uint32_t m = memberOf(block);
    const uint8_t slot = slotOf(g, m);
    // Where the demand data is read from: the NM slot on a hit, the
    // pre-swap FM slot on a miss.
    const Location serviced = slotLocation(g, slot);

    const uint32_t nm_burst =
        static_cast<uint32_t>(kSubblockSize) + kLltBytes;

    // Line Location Predictor: a correct "in FM" speculation lets the
    // FM request bypass the LLT serialization.
    bool predicted_fm = false;
    if (params_.llp_entries != 0) {
        ++llp_lookups_;
        predicted_fm = llp_[llpIndex(block)] != 0;
        if (predicted_fm == (slot != 0))
            ++llp_correct_;
        llp_[llpIndex(block)] = 0;   // after this access it is in NM
    }

    if (slot == 0) {
        // NM hit: one extended-burst read returns LLT + data.
        recordService(true);
        issueRead(*env_.nm, slotLocation(g, 0).device_addr, nm_burst,
                  dram::TrafficClass::Demand, core, std::move(done), now);
    } else {
        // NM read fetches the LLT (and the current NM data, which will
        // be evicted); the FM read returns the demand data — in
        // parallel when the LLP predicted FM, serially otherwise.
        recordService(false);
        const Location fm_loc = slotLocation(g, slot);
        const uint32_t evicted = memberAtSlot(g, 0);
        // Functional swap happens immediately; timing follows.
        swapIntoNm(block, core, now);
        if (params_.llp_entries != 0)
            llp_[llpIndex(g + uint64_t(evicted) * nm_blocks_)] = 1;

        if (predicted_fm) {
            issueRead(*env_.nm, slotLocation(g, 0).device_addr, nm_burst,
                      dram::TrafficClass::Metadata, core, nullptr, now);
            issueRead(*env_.fm, fm_loc.device_addr,
                      static_cast<uint32_t>(kSubblockSize),
                      dram::TrafficClass::Demand, core, std::move(done),
                      now);
        } else {
            auto fm_fetch = [this, fm_loc, core,
                             done = std::move(done)](Tick t) mutable {
                issueRead(*env_.fm, fm_loc.device_addr,
                          static_cast<uint32_t>(kSubblockSize),
                          dram::TrafficClass::Demand, core,
                          std::move(done), t);
            };
            issueRead(*env_.nm, slotLocation(g, 0).device_addr, nm_burst,
                      dram::TrafficClass::Metadata, core,
                      std::move(fm_fetch), now);
        }
    }

    // Next-line prefetch (CAMEOP): on an FM miss, pull the following
    // lines into NM as well ("fetches extra 3 lines along with the
    // miss", Section IV-A).
    if (params_.prefetch_degree > 0 && slot != 0) {
        const uint64_t total_blocks = flatSpaceBytes() >> kSubblockBits;
        for (uint32_t i = 1; i <= params_.prefetch_degree; ++i) {
            const uint64_t pb = block + i;
            if (pb >= total_blocks)
                break;
            const uint64_t pg = groupOf(pb);
            const uint32_t pm = memberOf(pb);
            const uint8_t pslot = slotOf(pg, pm);
            if (pslot == 0)
                continue;
            // LLT read for the prefetched group, FM fetch, then swap.
            const Location pfm = slotLocation(pg, pslot);
            issueRead(*env_.nm, slotLocation(pg, 0).device_addr, nm_burst,
                      dram::TrafficClass::Metadata, core, nullptr, now);
            issueRead(*env_.fm, pfm.device_addr,
                      static_cast<uint32_t>(kSubblockSize),
                      dram::TrafficClass::Migration, core, nullptr, now);
            swapIntoNm(pb, core, now);
            ++prefetches_;
        }
    }

    notifyDemand(paddr, is_write, core, pc, serviced);
}

void
CameoPolicy::checkpoint(Blob &b)
{
    FlatMemoryPolicy::checkpoint(b);
    b.items(perm_, "cameo permutation size");
    b.items(llp_, "cameo LLP size");
    b.u64(swaps_);
    b.u64(prefetches_);
    b.u64(llp_correct_);
    b.u64(llp_lookups_);
}

} // namespace policy
} // namespace silc
