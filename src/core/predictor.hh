/**
 * @file
 * The way/location predictor (SILC-FM Section III-F): a small tagless
 * table indexed by PC XOR data-address offset.  Each entry remembers the
 * most recent way within the NM set and one bit speculating whether the
 * data is in NM or FM.
 *
 * A correct FM speculation lets the request go to FM in parallel with
 * the NM remap-entry fetch, hiding the NM metadata latency; a correct
 * way prediction avoids serially fetching all remap entries of the set.
 */

#ifndef SILC_CORE_PREDICTOR_HH
#define SILC_CORE_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace silc {

class BlobWriter;
class BlobReader;

namespace core {

/** One prediction. */
struct WayPrediction
{
    bool valid = false;
    uint8_t way = 0;
    bool in_fm = false;
};

/** The PC xor address indexed way/location predictor. */
class WayPredictor
{
  public:
    /** @param entries table size (paper: 4K); must be a power of two. */
    explicit WayPredictor(uint64_t entries);

    /** Predict for a (pc, address) pair. */
    WayPrediction predict(Addr pc, Addr addr) const;

    /** Train with the observed outcome. */
    void update(Addr pc, Addr addr, uint8_t way, bool in_fm);

    uint64_t entries() const { return table_.size(); }

    uint64_t predictions() const { return predictions_; }
    uint64_t wayHits() const { return way_hits_; }
    uint64_t locationHits() const { return location_hits_; }

    /** Record prediction accuracy (called by the policy). */
    void
    recordOutcome(bool way_correct, bool location_correct)
    {
        ++predictions_;
        if (way_correct)
            ++way_hits_;
        if (location_correct)
            ++location_hits_;
    }

    /** Serialize / restore contents (sparse: valid entries only). */
    void snapshot(BlobWriter &w) const;
    void restore(BlobReader &r);

  private:
    struct Entry
    {
        bool valid = false;
        uint8_t way = 0;
        bool in_fm = false;
    };

    uint64_t indexFor(Addr pc, Addr addr) const;

    std::vector<Entry> table_;
    uint64_t mask_;
    uint64_t predictions_ = 0;
    uint64_t way_hits_ = 0;
    uint64_t location_hits_ = 0;
};

} // namespace core
} // namespace silc

#endif // SILC_CORE_PREDICTOR_HH
