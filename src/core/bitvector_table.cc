#include "core/bitvector_table.hh"

#include "common/logging.hh"

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
BitVectorTable::checkpoint(Blob &b)
{
    b.size(entries_, "bit vector table size");
    table_.checkpoint(b, entries_, "bit vector table",
                      [&](uint32_t &v) { b.u32(v); });
    b.u64(saves_);
    b.u64(hits_);
    b.u64(lookups_);
}

} // namespace core
} // namespace silc
