#include "core/set_metadata.hh"

#include "common/logging.hh"

namespace silc {
namespace core {

const WayMeta NmMetadata::kDefaultMeta{};

NmMetadata::NmMetadata(uint64_t nm_frames, uint32_t associativity)
    : num_frames_(nm_frames), assoc_(associativity)
{
    if (associativity == 0)
        fatal("silcfm: associativity must be at least 1");
    if (nm_frames == 0 || nm_frames % associativity != 0)
        fatal("silcfm: NM frames (%llu) not divisible by associativity "
              "(%u)",
              static_cast<unsigned long long>(nm_frames), associativity);
    num_sets_ = nm_frames / associativity;
}

int
NmMetadata::findWay(uint64_t set, uint64_t fm_page) const
{
    for (uint32_t w = 0; w < assoc_; ++w) {
        if (meta(frameOf(set, w)).remap == fm_page)
            return static_cast<int>(w);
    }
    return -1;
}

int
NmMetadata::victimWay(uint64_t set) const
{
    int best = -1;
    uint64_t best_lru = ~uint64_t(0);
    for (uint32_t w = 0; w < assoc_; ++w) {
        const WayMeta &m = meta(frameOf(set, w));
        if (m.locked)
            continue;
        if (m.remap == kNoRemap)
            return static_cast<int>(w);
        if (m.lru < best_lru) {
            best_lru = m.lru;
            best = static_cast<int>(w);
        }
    }
    return best;
}

uint64_t
NmMetadata::lockedWays() const
{
    // Default frames are unlocked, so the materialized set is complete.
    uint64_t n = 0;
    frames_.forEach([&](uint64_t, const WayMeta &m) {
        if (m.locked)
            ++n;
    });
    return n;
}

void
NmMetadata::ageCounters()
{
    // Default frames have zero counters; shifting them is a no-op.
    frames_.forEachMutable([](uint64_t, WayMeta &m) {
        m.nm_counter >>= 1;
        m.fm_counter >>= 1;
    });
}

void
NmMetadata::checkpoint(Blob &b)
{
    b.size(num_frames_, "silcfm NM frame count");
    frames_.checkpoint(b, num_frames_, "silcfm NM frame",
                       [&](WayMeta &m) {
        b.u64(m.remap);
        m.bv.checkpoint(b);
        m.used.checkpoint(b);
        b.flag(m.locked);
        b.flag(m.native_locked);
        b.u64(m.lru);
        b.u8(m.nm_counter);
        b.u8(m.fm_counter);
        b.u64(m.first_pc);
        b.u64(m.first_addr);
        b.flag(m.has_signature);
    });
    b.u64(lru_clock_);
}

} // namespace core
} // namespace silc
