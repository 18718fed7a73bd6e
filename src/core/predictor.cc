#include "core/predictor.hh"

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
WayPredictor::snapshot(BlobWriter &w) const
{
    uint64_t valid = 0;
    for (const Entry &e : table_) {
        if (e.valid)
            ++valid;
    }
    w.putU64(table_.size());
    w.putU64(valid);
    for (uint64_t i = 0; i < table_.size(); ++i) {
        if (table_[i].valid) {
            w.putU64(i);
            w.putU8(table_[i].way);
            w.putBool(table_[i].in_fm);
        }
    }
    w.putU64(predictions_);
    w.putU64(way_hits_);
    w.putU64(location_hits_);
}

void
WayPredictor::restore(BlobReader &r)
{
    const uint64_t n = r.getU64();
    if (n != table_.size())
        fatal("way predictor restore: %llu entries vs %zu",
              static_cast<unsigned long long>(n), table_.size());
    std::fill(table_.begin(), table_.end(), Entry{});
    const uint64_t valid = r.getU64();
    for (uint64_t i = 0; i < valid; ++i) {
        const uint64_t idx = r.getU64();
        if (idx >= table_.size())
            fatal("way predictor restore: index %llu out of range",
                  static_cast<unsigned long long>(idx));
        Entry &e = table_[idx];
        e.valid = true;
        e.way = r.getU8();
        e.in_fm = r.getBool();
    }
    predictions_ = r.getU64();
    way_hits_ = r.getU64();
    location_hits_ = r.getU64();
}

} // namespace core
} // namespace silc
