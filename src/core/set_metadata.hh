/**
 * @file
 * Per-NM-frame metadata and the set-associative organization of NM
 * (SILC-FM Sections III-A, III-C, III-D).
 *
 * NM is divided into 2KB frames.  Frame f is the home of NM-native flat
 * page f, and can additionally host subblocks of exactly one FM page,
 * interleaved (the remap entry names that page; the 32-bit bit vector
 * marks which subblock positions currently hold swapped-in FM data).
 * Frames are grouped into sets of `associativity` ways; an FM page maps
 * to a set by modulo and may occupy any unlocked way.
 *
 * Storage is sparse: a paper-scale NM (1 GiB = 524288 frames and up)
 * would cost ~80 B per frame in a dense array even though a run only
 * ever touches footprint-many frames.  Frames are materialized in a
 * flat table on first mutation; an unmaterialized frame reads as the
 * default WayMeta (no remap, unlocked, zeroed counters), which is
 * exactly the dense initial state.
 */

#ifndef SILC_CORE_SET_METADATA_HH
#define SILC_CORE_SET_METADATA_HH

#include <cstdint>
#include <vector>

#include "common/bitvector.hh"
#include "common/sparse_array.hh"
#include "common/types.hh"

namespace silc {
namespace core {

/** Sentinel: no FM page interleaved into this frame. */
constexpr uint64_t kNoRemap = ~uint64_t(0);

/** Metadata of one NM frame (one way of a set). */
struct WayMeta
{
    /** Flat page id of the FM page interleaved here (kNoRemap if none). */
    uint64_t remap = kNoRemap;
    /** Which subblock positions hold swapped-in FM data. */
    SubblockVector bv;
    /**
     * Which subblocks were actually demanded while interleaved (as
     * opposed to fetched by locking or the history prefetch).  This is
     * what gets saved into the bit vector history table, so lock-driven
     * full fetches do not pollute the recalled usage pattern.
     */
    SubblockVector used;
    /** Hot block pinned in NM (Section III-C). */
    bool locked = false;
    /** True when the lock belongs to the NM-native page (remap-free). */
    bool native_locked = false;
    /** LRU timestamp for victim selection among unlocked ways. */
    uint64_t lru = 0;
    /** 6-bit aging counter: accesses to the NM-native block. */
    uint8_t nm_counter = 0;
    /** 6-bit aging counter: accesses to the swapped-in FM block. */
    uint8_t fm_counter = 0;
    /** PC of the first subblock swapped in (bit vector table index). */
    Addr first_pc = 0;
    /** Address of the first subblock swapped in. */
    Addr first_addr = 0;
    /** first_pc/first_addr hold a valid signature. */
    bool has_signature = false;
};

/** The NM metadata array (sparsely materialized). */
class NmMetadata
{
  public:
    /**
     * @param nm_frames     number of 2KB NM frames
     * @param associativity ways per set (1, 2 or 4 in the paper)
     */
    NmMetadata(uint64_t nm_frames, uint32_t associativity);

    uint64_t frames() const { return num_frames_; }
    uint64_t numSets() const { return num_sets_; }
    uint32_t associativity() const { return assoc_; }

    /** Frames that have been materialized (touched) so far. */
    uint64_t materializedFrames() const { return frames_.size(); }

    /** Set an FM flat page maps to. */
    uint64_t
    setOf(uint64_t fm_page) const
    {
        return fm_page % num_sets_;
    }

    /** Frame index of way @p way in set @p set. */
    uint64_t
    frameOf(uint64_t set, uint32_t way) const
    {
        return set * assoc_ + way;
    }

    /** Set and way that NM frame @p frame belongs to. */
    uint64_t setOfFrame(uint64_t frame) const { return frame / assoc_; }
    uint32_t
    wayOfFrame(uint64_t frame) const
    {
        return static_cast<uint32_t>(frame % assoc_);
    }

    /** Mutable access materializes the frame. */
    WayMeta &meta(uint64_t frame) { return frames_.getOrCreate(frame); }

    /** Const access never materializes: absent frames read as default. */
    const WayMeta &
    meta(uint64_t frame) const
    {
        const WayMeta *m = frames_.find(frame);
        return m != nullptr ? *m : kDefaultMeta;
    }

    /**
     * Way of @p set whose remap names @p fm_page, or -1.
     */
    int findWay(uint64_t set, uint64_t fm_page) const;

    /**
     * Choose a victim way in @p set for a new FM page: an unlocked way
     * with no remap first, else the LRU unlocked way; -1 when every way
     * is locked.
     */
    int victimWay(uint64_t set) const;

    /** Bump the LRU stamp of @p m, a frame's metadata from meta(). */
    void touch(WayMeta &m) { m.lru = ++lru_clock_; }

    /** Number of currently locked ways (diagnostics). */
    uint64_t lockedWays() const;

    /** Age every activity counter by one right-shift (Section III-B). */
    void ageCounters();

    /**
     * Visit materialized frames in ascending frame order (const).
     * Absent frames are default — sweeps that would no-op on a default
     * frame are complete over this set.
     */
    template <typename Fn>
    void
    forEachMaterialized(Fn fn) const
    {
        frames_.forEachSorted(
            [&](uint64_t frame, const WayMeta &m) { fn(frame, m); });
    }

    /** Mutable ascending-order visit (aging sweeps stay deterministic). */
    template <typename Fn>
    void
    forEachMaterializedMutable(Fn fn)
    {
        for (uint64_t frame : frames_.sortedKeys())
            fn(frame, *frames_.find(frame));
    }

    /** Checkpoint the materialized frames and the LRU clock. */
    void checkpoint(Blob &b);

  private:
    static const WayMeta kDefaultMeta;

    SparseArray<WayMeta> frames_;
    uint64_t num_frames_;
    uint64_t num_sets_;
    uint32_t assoc_;
    uint64_t lru_clock_ = 0;
};

} // namespace core
} // namespace silc

#endif // SILC_CORE_SET_METADATA_HH
