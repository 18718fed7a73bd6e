#include "policy/block_cache.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

BlockCacheDir::BlockCacheDir(uint64_t slots, uint32_t ways)
    : ways_(ways)
{
    if (ways == 0)
        fatal("block cache: at least one way required");
    if (slots == 0 || slots % ways != 0)
        fatal("block cache: slot count must be a non-zero multiple of "
              "the way count");
    sets_ = slots / ways;
    owner_.assign(slots, kNoBlock);
    dirty_.assign(slots, 0);
    rr_.assign(sets_, 0);
}

uint64_t
BlockCacheDir::lookup(uint64_t block) const
{
    auto it = slot_of_.find(block);
    return it == slot_of_.end() ? kNoSlot : it->second;
}

uint64_t
BlockCacheDir::victimSlot(uint64_t block) const
{
    const uint64_t set = setOf(block);
    const uint64_t base = set * ways_;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (owner_[base + w] == kNoBlock)
            return base + w;
    }
    return base + rr_[set];
}

BlockCacheDir::Fill
BlockCacheDir::install(uint64_t block)
{
    silc_assert(lookup(block) == kNoSlot);
    const uint64_t set = setOf(block);
    const uint64_t slot = victimSlot(block);

    Fill fill;
    fill.slot = slot;
    fill.evicted = owner_[slot];
    fill.evicted_dirty = dirty_[slot] != 0;
    if (fill.evicted != kNoBlock)
        slot_of_.erase(fill.evicted);
    else
        fill.evicted_dirty = false;

    owner_[slot] = block;
    dirty_[slot] = 0;
    slot_of_[block] = slot;
    // Advance the cursor past the slot just filled so consecutive
    // conflict fills spread over the set deterministically.
    rr_[set] = static_cast<uint32_t>((slot - set * ways_ + 1) % ways_);
    return fill;
}

void
BlockCacheDir::checkpoint(Blob &b)
{
    b.items(owner_, "block cache slot count");
    for (uint8_t &d : dirty_)
        b.u8(d);
    b.items(rr_, "block cache set count");
    if (b.reading()) {
        for (uint64_t s = 0; s < owner_.size(); ++s) {
            if (owner_[s] != kNoBlock)
                slot_of_[owner_[s]] = s;
        }
    }
}

void
BlockCacheDir::faultClearDirty(uint64_t block)
{
    const uint64_t slot = lookup(block);
    silc_assert(slot != kNoSlot);
    dirty_[slot] = 0;
}

void
BlockCacheDir::faultAliasInto(uint64_t block, uint64_t other)
{
    const uint64_t slot = lookup(other);
    silc_assert(slot != kNoSlot);
    slot_of_[block] = slot;
}

void
BlockCacheDir::faultMapToSlot(uint64_t block, uint64_t slot)
{
    slot_of_[block] = slot;
}

} // namespace policy
} // namespace silc
