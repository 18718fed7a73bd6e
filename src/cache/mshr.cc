#include "cache/mshr.hh"

#include <utility>

#include "common/logging.hh"

namespace silc {
namespace cache {

MshrFile::MshrFile(uint32_t capacity, uint32_t per_core_capacity)
    : capacity_(capacity), per_core_capacity_(per_core_capacity)
{
    silc_assert(capacity_ > 0);
    silc_assert(per_core_capacity_ > 0);

    // Keep the load factor at or below one half so linear probe chains
    // stay short and an empty slot always terminates a lookup.
    size_t n = 4;
    while (n < 2 * static_cast<size_t>(capacity_))
        n <<= 1;
    slots_.resize(n);
    mask_ = n - 1;
}

const MshrFile::Slot *
MshrFile::findSlot(Addr addr) const
{
    size_t i = homeOf(addr);
    while (slots_[i].addr != kAddrInvalid) {
        if (slots_[i].addr == addr)
            return &slots_[i];
        i = (i + 1) & mask_;
    }
    return nullptr;
}

MshrFile::Slot *
MshrFile::findSlot(Addr addr)
{
    return const_cast<Slot *>(
        static_cast<const MshrFile *>(this)->findSlot(addr));
}

void
MshrFile::removeSlot(size_t i)
{
    // Backward-shift deletion (Knuth 6.4 algorithm R): pull every
    // displaced element of the probe chain one hole closer to its home
    // so lookups never need deletion markers.
    size_t hole = i;
    size_t j = i;
    for (;;) {
        j = (j + 1) & mask_;
        Slot &s = slots_[j];
        if (s.addr == kAddrInvalid)
            break;
        const size_t home = homeOf(s.addr);
        if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            slots_[hole] = std::move(s);
            hole = j;
        }
    }
    Slot &h = slots_[hole];
    h.addr = kAddrInvalid;
    h.first = nullptr;
    h.more.clear();
}

MshrAllocation
MshrFile::allocate(Addr block_addr, CoreId core, MissCallback cb)
{
    silc_assert(block_addr == subblockAddr(block_addr));

    if (Slot *slot = findSlot(block_addr)) {
        slot->more.push_back(std::move(cb));
        ++coalesced_;
        return MshrAllocation::Coalesced;
    }

    if (full(core)) {
        ++rejections_;
        return MshrAllocation::NoCapacity;
    }

    size_t i = homeOf(block_addr);
    while (slots_[i].addr != kAddrInvalid)
        i = (i + 1) & mask_;
    Slot &slot = slots_[i];
    slot.addr = block_addr;
    slot.owner = core;
    slot.first = std::move(cb);
    ++count_;

    if (core >= per_core_.size())
        per_core_.resize(core + 1, 0);
    ++per_core_[core];
    return MshrAllocation::Primary;
}

size_t
MshrFile::complete(Addr block_addr, Tick now)
{
    Slot *slot = findSlot(block_addr);
    if (slot == nullptr)
        panic("completing unknown MSHR entry");

    // Move the waiters out before freeing the slot: a waiter may
    // allocate a new miss for the same block.
    const CoreId owner = slot->owner;
    MissCallback first = std::move(slot->first);
    std::vector<MissCallback> more = std::move(slot->more);
    removeSlot(static_cast<size_t>(slot - slots_.data()));
    --count_;

    silc_assert(owner < per_core_.size() && per_core_[owner] > 0);
    --per_core_[owner];

    first(now);
    for (auto &waiter : more)
        waiter(now);
    return 1 + more.size();
}

} // namespace cache
} // namespace silc
