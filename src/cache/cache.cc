#include "cache/cache.hh"

#include <bit>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace cache {

void
CacheParams::validate() const
{
    if (!isPowerOf2(line_bytes) || line_bytes == 0)
        fatal("%s: line size must be a power of two", name.c_str());
    if (associativity == 0)
        fatal("%s: zero associativity", name.c_str());
    if (associativity > kMaxAssociativity) {
        fatal("%s: associativity %u exceeds the %u ways a set's match "
              "mask holds", name.c_str(), associativity, kMaxAssociativity);
    }
    if (size_bytes % (static_cast<uint64_t>(line_bytes) * associativity)
        != 0) {
        fatal("%s: size not divisible by way size", name.c_str());
    }
    if (!isPowerOf2(numSets()))
        fatal("%s: number of sets must be a power of two", name.c_str());
}

Cache::Cache(CacheParams params)
    : params_(std::move(params))
{
    params_.validate();
    num_sets_ = params_.numSets();
    line_shift_ = floorLog2(params_.line_bytes);
    set_bits_ = floorLog2(num_sets_);
    const uint64_t ways = num_sets_ * params_.associativity;
    tags_.assign(ways, kAddrInvalid);
    lru_.assign(ways, 0);
    dirty_.assign(ways, 0);
}

uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> line_shift_) & (num_sets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> line_shift_ >> set_bits_;
}

Addr
Cache::lineAddr(Addr tag, uint64_t set) const
{
    return ((tag << set_bits_) | set) << line_shift_;
}

WayMask
Cache::match(uint64_t base, Addr tag) const
{
    // Compare every way and branch once, in the caller: a block sits in
    // at most one way, so the mask's lowest set bit is the hit.
    const Addr *tags = &tags_[base];
    WayMask hit = 0;
    for (uint32_t w = 0; w < params_.associativity; ++w)
        hit |= static_cast<WayMask>(tags[w] == tag) << w;
    return hit;
}

void
Cache::touch(uint64_t way, bool is_write)
{
    lru_[way] = ++lru_clock_;
    if (is_write)
        dirty_[way] = 1;
}

AccessOutcome
Cache::install(uint64_t base, Addr tag, uint64_t set, bool dirty)
{
    // The victim is the first way with the smallest stamp.  An empty way
    // keeps stamp 0 and every install stamps ++lru_clock_ >= 1, so that
    // is the first empty way, else the least recently used.  Keep the
    // smallest stamp in a local: gcc then picks the victim with cmov,
    // where a compare against lru_[victim] compiled to a data-dependent
    // branch and measured slower on miss-heavy runs.
    const uint64_t *stamps = &lru_[base];
    uint32_t oldest = 0;
    uint64_t oldest_stamp = stamps[0];
    for (uint32_t w = 1; w < params_.associativity; ++w) {
        if (stamps[w] < oldest_stamp) {
            oldest_stamp = stamps[w];
            oldest = w;
        }
    }
    const uint64_t victim = base + oldest;
    AccessOutcome out;
    if (tags_[victim] != kAddrInvalid) {
        ++evictions_;
        if (dirty_[victim]) {
            ++writebacks_;
            out.writeback = true;
            out.writeback_addr = lineAddr(tags_[victim], set);
        }
    }
    tags_[victim] = tag;
    dirty_[victim] = dirty;
    lru_[victim] = ++lru_clock_;
    return out;
}

AccessOutcome
Cache::access(Addr addr, bool is_write)
{
    const uint64_t set = setIndex(addr);
    const uint64_t base = set * params_.associativity;
    const Addr tag = tagOf(addr);
    if (const WayMask hit = match(base, tag)) {
        ++hits_;
        touch(base + std::countr_zero(hit), is_write);
        return {.hit = true};
    }
    ++misses_;
    return install(base, tag, set, is_write);
}

AccessOutcome
Cache::fill(Addr addr, bool dirty)
{
    const uint64_t set = setIndex(addr);
    const uint64_t base = set * params_.associativity;
    const Addr tag = tagOf(addr);
    if (const WayMask hit = match(base, tag)) {
        if (dirty)
            dirty_[base + std::countr_zero(hit)] = 1;
        return {.hit = true};
    }
    return install(base, tag, set, dirty);
}

bool
Cache::accessIfHit(Addr addr, bool is_write)
{
    const uint64_t base = setIndex(addr) * params_.associativity;
    const WayMask hit = match(base, tagOf(addr));
    if (hit == 0)
        return false;
    ++hits_;
    touch(base + std::countr_zero(hit), is_write);
    return true;
}

bool
Cache::probe(Addr addr) const
{
    return match(setIndex(addr) * params_.associativity, tagOf(addr)) != 0;
}

void
Cache::checkpoint(Blob &b)
{
    b.size(tags_.size(), (params_.name + " geometry").c_str());
    for (size_t w = 0; w < tags_.size(); ++w) {
        b.u64(tags_[w]);
        bool valid = tags_[w] != kAddrInvalid;
        b.flag(valid);
        bool dirty = dirty_[w] != 0;
        b.flag(dirty);
        dirty_[w] = dirty;
        b.u64(lru_[w]);
        // The tag states validity, and victim choice needs an empty
        // way's stamp at 0 (see install).
        if (valid != (tags_[w] != kAddrInvalid) ||
            (!valid && lru_[w] != 0)) {
            fatal("%s checkpoint: way %zu has valid bit %d, tag 0x%llx, "
                  "stamp %llu", params_.name.c_str(), w, valid ? 1 : 0,
                  static_cast<unsigned long long>(tags_[w]),
                  static_cast<unsigned long long>(lru_[w]));
        }
    }
    b.u64(lru_clock_);
}

} // namespace cache
} // namespace silc
