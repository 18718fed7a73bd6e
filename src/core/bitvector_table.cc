#include "core/bitvector_table.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace core {

BitVectorTable::BitVectorTable(uint64_t entries)
    : entries_(entries)
{
    if (!isPowerOf2(entries))
        fatal("bit vector table entries must be a power of two");
    mask_ = entries - 1;
}

uint64_t
BitVectorTable::indexFor(Addr pc, Addr first_addr) const
{
    // XOR of PC and the first swapped-in subblock address, folded; both
    // are known to correlate strongly with execution phase (Section
    // III-A and its citations).
    uint64_t x = (pc >> 2) ^ (first_addr >> kSubblockBits);
    x ^= x >> 17;
    return x & mask_;
}

void
BitVectorTable::save(Addr pc, Addr first_addr, SubblockVector bv)
{
    if (bv.none())
        return;   // an all-zero vector carries no reuse information
    table_.set(indexFor(pc, first_addr), bv.raw());
    ++saves_;
}

SubblockVector
BitVectorTable::lookup(Addr pc, Addr first_addr) const
{
    ++lookups_;
    const uint32_t *slot = table_.find(indexFor(pc, first_addr));
    const SubblockVector bv{slot != nullptr ? *slot : 0};
    if (!bv.none())
        ++hits_;
    return bv;
}

void
BitVectorTable::snapshot(BlobWriter &w) const
{
    // The blob stores only populated slots, ascending — the same
    // format the dense table emitted, so old checkpoints round-trip.
    w.putU64(entries_);
    w.putU64(table_.size());
    table_.forEachSorted([&](uint64_t i, const uint32_t &v) {
        w.putU64(i);
        w.putU32(v);
    });
    w.putU64(saves_);
    w.putU64(hits_);
    w.putU64(lookups_);
}

void
BitVectorTable::restore(BlobReader &r)
{
    const uint64_t n = r.getU64();
    if (n != entries_)
        fatal("bit vector table restore: %llu entries vs %llu",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(entries_));
    table_.clear();
    const uint64_t populated = r.getU64();
    for (uint64_t i = 0; i < populated; ++i) {
        const uint64_t idx = r.getU64();
        if (idx >= entries_)
            fatal("bit vector table restore: index %llu out of range",
                  static_cast<unsigned long long>(idx));
        table_.set(idx, r.getU32());
    }
    saves_ = r.getU64();
    hits_ = r.getU64();
    lookups_ = r.getU64();
}

} // namespace core
} // namespace silc
