#include "core/predictor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace core {

WayPredictor::WayPredictor(uint64_t entries)
{
    if (!isPowerOf2(entries))
        fatal("way predictor entries must be a power of two");
    table_.assign(entries, Entry{});
    mask_ = entries - 1;
}

uint64_t
WayPredictor::indexFor(Addr pc, Addr addr) const
{
    // The paper indexes by PC xor data-address offset, relying on the
    // strong PC/pattern correlation of real SPEC code.  Synthetic
    // traces carry far weaker PC correlation, so this model indexes by
    // the large-block (page) number folded with a little PC salt — the
    // same information content the paper's predictor extracts (which
    // way / which device served this stream recently), restoring the
    // accuracy the mechanism is designed to have (see DESIGN.md).
    const uint64_t page = addr >> kLargeBlockBits;
    uint64_t x = page ^ (pc >> 8);
    x ^= x >> 13;
    return x & mask_;
}

WayPrediction
WayPredictor::predict(Addr pc, Addr addr) const
{
    const Entry &e = table_[indexFor(pc, addr)];
    WayPrediction p;
    p.valid = e.valid;
    p.way = e.way;
    p.in_fm = e.in_fm;
    return p;
}

void
WayPredictor::update(Addr pc, Addr addr, uint8_t way, bool in_fm)
{
    Entry &e = table_[indexFor(pc, addr)];
    e.valid = true;
    e.way = way;
    e.in_fm = in_fm;
}

void
WayPredictor::checkpoint(Blob &b)
{
    b.size(table_.size(), "way predictor size");
    uint64_t valid = static_cast<uint64_t>(std::count_if(
        table_.begin(), table_.end(),
        [](const Entry &e) { return e.valid; }));
    b.u64(valid);
    // The valid entries, ascending; a reading pass takes each index
    // from the blob instead of scanning for it.
    for (uint64_t i = 0, idx = 0; i < valid; ++i, ++idx) {
        while (!b.reading() && !table_[idx].valid)
            ++idx;
        b.u64(idx);
        if (idx >= table_.size())
            fatal("way predictor restore: index %llu out of range",
                  static_cast<unsigned long long>(idx));
        Entry &e = table_[idx];
        e.valid = true;
        b.u8(e.way);
        b.flag(e.in_fm);
    }
    b.u64(predictions_);
    b.u64(way_hits_);
    b.u64(location_hits_);
}

} // namespace core
} // namespace silc
