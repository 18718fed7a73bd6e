/**
 * @file
 * BlockCacheDir: the set-associative directory of the cache-like
 * organization schemes (MemCachePolicy, which serves both the pure
 * die-stacked DRAM cache and the MemCache hybrid).  Tracks which 64B
 * flat block occupies each NM slot, per-slot dirty bits, and a
 * deterministic per-set round-robin replacement cursor.  All three are
 * sparse (SparseArray): an absent slot is empty and clean, an absent
 * cursor 0, so the directory and its checkpoint follow the filled
 * slots, not the NM capacity.  A block can only sit in its own set, so
 * a lookup compares that set's ways, as a tag check does.
 *
 * The directory is purely functional bookkeeping — the owning policy
 * issues all DRAM traffic.  It also carries the fault-injection hooks
 * the shadow-data oracle's self-tests use to prove lost-write,
 * duplicate-block, and capacity-overflow corruption is detected
 * (tests/test_check.cc ONLY; production code must never call them).
 */

#ifndef SILC_POLICY_BLOCK_CACHE_HH
#define SILC_POLICY_BLOCK_CACHE_HH

#include <cstdint>
#include <unordered_map>

#include "common/sparse_array.hh"
#include "common/types.hh"

namespace silc {

class Blob;

namespace policy {

/** Set-associative directory of 64B blocks cached in an NM region. */
class BlockCacheDir
{
  public:
    static constexpr uint64_t kNoBlock = ~uint64_t(0);
    static constexpr uint64_t kNoSlot = ~uint64_t(0);

    /** @param slots total 64B slots; @p ways slots per set (must divide
     *  @p slots). */
    BlockCacheDir(uint64_t slots, uint32_t ways);

    uint64_t slots() const { return slots_; }
    uint32_t ways() const { return ways_; }
    uint64_t sets() const { return sets_; }

    /** Slot caching @p block (one of its set's ways), or kNoSlot. */
    uint64_t lookup(uint64_t block) const;

    /** Slot a fill of @p block would land in (empty way first, else the
     *  set's round-robin victim).  Does not modify state. */
    uint64_t victimSlot(uint64_t block) const;

    /** Outcome of install(): where the block landed and who left. */
    struct Fill
    {
        uint64_t slot = kNoSlot;
        /** Previous occupant (kNoBlock: the way was empty). */
        uint64_t evicted = kNoBlock;
        bool evicted_dirty = false;
    };

    /** Install @p block (must not be resident), evicting the victim. */
    Fill install(uint64_t block);

    void
    markDirty(uint64_t slot)
    {
        occupants_.getOrCreate(slot).dirty = true;
    }

    void checkpoint(Blob &b);

    // ---- Fault injection (shadow-oracle self-tests ONLY). ----

    /** Drop the dirty bit of resident @p block: its next eviction
     *  silently discards the cached (written) data — a lost write. */
    void faultClearDirty(uint64_t block);

    /** Make lookup(@p block) answer @p other's slot: two flat blocks
     *  now claim one device location — a duplicate block. */
    void faultAliasInto(uint64_t block, uint64_t other);

    /** Make lookup(@p block) answer raw @p slot (may be out of range):
     *  locate() escapes the device — a capacity overflow. */
    void faultMapToSlot(uint64_t block, uint64_t slot);

  private:
    /** What one NM slot holds (the default: empty and clean). */
    struct Occupant
    {
        uint64_t block = kNoBlock;
        bool dirty = false;
    };

    uint64_t setOf(uint64_t block) const { return block % sets_; }

    Occupant
    occupant(uint64_t slot) const
    {
        return occupants_.get(slot, Occupant{});
    }

    uint64_t slots_;
    uint32_t ways_;
    uint64_t sets_;
    /** slot -> resident block and dirty bit (absent: empty). */
    SparseArray<Occupant> occupants_;
    /** Per-set round-robin replacement cursor (absent: 0).  Never
     *  materialized direct-mapped, where it is always 0. */
    SparseArray<uint32_t> rr_;
    /** Injected block -> slot answers that lookup() gives ahead of
     *  the ways (empty outside the fault-injection self-tests). */
    std::unordered_map<uint64_t, uint64_t> faults_;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_BLOCK_CACHE_HH
