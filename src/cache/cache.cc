#include "cache/cache.hh"

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
    lines_.assign(num_sets_ * params_.associativity, Line{});
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

const Cache::Line *
Cache::findLine(Addr tag, uint64_t set) const
{
    const Line *base = &lines_[set * params_.associativity];
    for (uint32_t w = 0; w < params_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

Cache::Line *
Cache::findLine(Addr tag, uint64_t set)
{
    return const_cast<Line *>(
        static_cast<const Cache *>(this)->findLine(tag, set));
}

Cache::Line *
Cache::scanSet(Addr tag, uint64_t set, Line **victim_out)
{
    // One pass per lookup: the matching line if present, plus the first
    // invalid way (the preferred victim) and the LRU-minimum way for the
    // miss path — access() and fill() used to walk the set once to find
    // the line and again to pick a victim.  The LRU minimum runs over
    // every way regardless of validity; it is only consulted when no
    // invalid way exists, in which case the two sets coincide.
    Line *base = &lines_[set * params_.associativity];
    Line *invalid = nullptr;
    Line *lru_min = base;
    for (uint32_t w = 0; w < params_.associativity; ++w) {
        if (base[w].valid) {
            if (base[w].tag == tag)
                return &base[w];
        } else if (invalid == nullptr) {
            invalid = &base[w];
        }
        if (base[w].lru < lru_min->lru)
            lru_min = &base[w];
    }
    *victim_out = invalid != nullptr ? invalid : lru_min;
    return nullptr;
}

AccessOutcome
Cache::install(Line &victim, Addr tag, uint64_t set, bool dirty)
{
    AccessOutcome out;
    if (victim.valid) {
        ++evictions_;
        if (victim.dirty) {
            ++writebacks_;
            out.writeback = true;
            out.writeback_addr = lineAddr(victim.tag, set);
        }
    }
    victim.tag = tag;
    victim.valid = true;
    victim.dirty = dirty;
    victim.lru = ++lru_clock_;
    return out;
}

AccessOutcome
Cache::access(Addr addr, bool is_write)
{
    const uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *victim = nullptr;
    if (Line *line = scanSet(tag, set, &victim)) {
        ++hits_;
        line->lru = ++lru_clock_;
        if (is_write)
            line->dirty = true;
        return {.hit = true};
    }
    ++misses_;
    return install(*victim, tag, set, is_write);
}

AccessOutcome
Cache::fill(Addr addr, bool dirty)
{
    const uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *victim = nullptr;
    if (Line *line = scanSet(tag, set, &victim)) {
        if (dirty)
            line->dirty = true;
        return {.hit = true};
    }
    return install(*victim, tag, set, dirty);
}

bool
Cache::accessIfHit(Addr addr, bool is_write)
{
    Line *line = findLine(tagOf(addr), setIndex(addr));
    if (line == nullptr)
        return false;
    ++hits_;
    line->lru = ++lru_clock_;
    if (is_write)
        line->dirty = true;
    return true;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(tagOf(addr), setIndex(addr)) != nullptr;
}

void
Cache::checkpoint(Blob &b)
{
    b.size(lines_.size(), (params_.name + " geometry").c_str());
    for (Line &l : lines_) {
        b.u64(l.tag);
        b.flag(l.valid);
        b.flag(l.dirty);
        b.u64(l.lru);
    }
    b.u64(lru_clock_);
}

} // namespace cache
} // namespace silc
