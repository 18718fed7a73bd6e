/**
 * @file
 * BlockCacheDir: the set-associative directory shared by the cache-like
 * organization schemes (the pure die-stacked DRAM cache and the
 * MemCache hybrid).  Tracks which 64B flat block occupies each NM slot,
 * per-slot dirty bits, and a deterministic per-set round-robin
 * replacement cursor.
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
#include <vector>

#include "common/types.hh"

namespace silc {

class BlobWriter;
class BlobReader;

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

    uint64_t slots() const { return owner_.size(); }
    uint32_t ways() const { return ways_; }
    uint64_t sets() const { return sets_; }

    /** Slot caching @p block, or kNoSlot. */
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

    /** Drop @p block from the directory (no-op when absent). */
    void erase(uint64_t block);

    bool dirty(uint64_t slot) const { return dirty_[slot] != 0; }
    void markDirty(uint64_t slot) { dirty_[slot] = 1; }

    /** Visit (block, slot) for every resident block (arbitrary order). */
    template <typename Fn>
    void
    forEachResident(Fn fn) const
    {
        for (const auto &[block, slot] : slot_of_)
            fn(block, slot);
    }

    void snapshot(BlobWriter &w) const;
    void restore(BlobReader &r);

    // ---- Fault injection (shadow-oracle self-tests ONLY). ----

    /** Drop the dirty bit of resident @p block: its next eviction
     *  silently discards the cached (written) data — a lost write. */
    void faultClearDirty(uint64_t block);

    /** Point @p block's directory entry at @p other's slot: two flat
     *  blocks now claim one device location — a duplicate block. */
    void faultAliasInto(uint64_t block, uint64_t other);

    /** Point resident @p block's entry at raw @p slot (may be out of
     *  range): locate() escapes the device — a capacity overflow. */
    void faultMapToSlot(uint64_t block, uint64_t slot);

  private:
    uint64_t setOf(uint64_t block) const { return block % sets_; }

    uint32_t ways_;
    uint64_t sets_;
    /** slot -> resident block (kNoBlock: empty). */
    std::vector<uint64_t> owner_;
    std::vector<uint8_t> dirty_;
    /** Per-set round-robin replacement cursor. */
    std::vector<uint32_t> rr_;
    /** block -> slot (the inverse of owner_). */
    std::unordered_map<uint64_t, uint64_t> slot_of_;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_BLOCK_CACHE_HH
