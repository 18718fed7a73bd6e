#include "policy/block_cache.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

BlockCacheDir::BlockCacheDir(uint64_t slots, uint32_t ways)
    : slots_(slots), ways_(ways)
{
    if (ways == 0)
        fatal("block cache: at least one way required");
    if (slots == 0 || slots % ways != 0)
        fatal("block cache: slot count must be a non-zero multiple of "
              "the way count");
    sets_ = slots / ways;
}

uint64_t
BlockCacheDir::lookup(uint64_t block) const
{
    if (!faults_.empty()) {
        auto it = faults_.find(block);
        if (it != faults_.end())
            return it->second;
    }
    const uint64_t base = setOf(block) * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (occupant(base + w).block == block)
            return base + w;
    }
    return kNoSlot;
}

uint64_t
BlockCacheDir::victimSlot(uint64_t block) const
{
    const uint64_t set = setOf(block);
    const uint64_t base = set * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (occupant(base + w).block == kNoBlock)
            return base + w;
    }
    return base + rr_.get(set, 0);
}

BlockCacheDir::Fill
BlockCacheDir::install(uint64_t block)
{
    silc_assert(lookup(block) == kNoSlot);
    const uint64_t set = setOf(block);
    const uint64_t slot = victimSlot(block);

    Occupant &o = occupants_.getOrCreate(slot);
    Fill fill;
    fill.slot = slot;
    fill.evicted = o.block;
    fill.evicted_dirty = o.block != kNoBlock && o.dirty;
    o = Occupant{block, false};
    // Advance the cursor past the slot just filled so consecutive
    // conflict fills spread over the set deterministically.
    if (ways_ > 1) {
        rr_.set(set,
                static_cast<uint32_t>((slot - set * ways_ + 1) % ways_));
    }
    return fill;
}

void
BlockCacheDir::checkpoint(Blob &b)
{
    b.size(slots_, "block cache slot count");
    occupants_.checkpoint(b, slots_, "block cache slot",
                          [&b](Occupant &o) {
        b.u64(o.block);
        b.flag(o.dirty);
    });
    b.size(sets_, "block cache set count");
    rr_.checkpoint(b, sets_, "block cache set",
                   [&b](uint32_t &cursor) { b.u32(cursor); });
}

void
BlockCacheDir::faultClearDirty(uint64_t block)
{
    const uint64_t slot = lookup(block);
    silc_assert(slot != kNoSlot);
    occupants_.getOrCreate(slot).dirty = false;
}

void
BlockCacheDir::faultAliasInto(uint64_t block, uint64_t other)
{
    const uint64_t slot = lookup(other);
    silc_assert(slot != kNoSlot);
    faults_[block] = slot;
}

void
BlockCacheDir::faultMapToSlot(uint64_t block, uint64_t slot)
{
    faults_[block] = slot;
}

} // namespace policy
} // namespace silc
