/**
 * @file
 * The cache-like rivals, one class.  NM is statically split: the first
 * `mem_percent` of NM is OS-visible flat memory (identity-mapped, zero
 * metadata cost); the remainder is a set-associative hardware cache of
 * FM at 64B granularity, with the tag stored alongside the data so a
 * hit costs one extended NM burst (Alloy-style tags-and-data, cf.
 * Qureshi & Loh, MICRO 2012).  The flat space is the static region
 * plus FM.
 *
 *  - memcache: the MemCache hybrid ("Die-Stacked DRAM: Memory, Cache,
 *    or MemCache?", PAPERS.md) — bigger flat space than a pure cache,
 *    smaller than SILC-FM's.
 *  - dramcache: the pure die-stacked DRAM cache, MemCache at
 *    mem_percent 0.  The OS address space is FM alone, so NM capacity
 *    adds no memory, only locality — the trade-off the SILC-FM paper's
 *    flat organization is designed to beat.
 */

#ifndef SILC_POLICY_MEMCACHE_HH
#define SILC_POLICY_MEMCACHE_HH

#include <cstdint>

#include "policy/block_cache.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/** Pure die-stacked DRAM cache configuration. */
struct DramCacheParams
{
    /** Ways per set (Alloy adopts 1: direct-mapped TAD). */
    uint32_t ways = 1;
    /** Allocate on write misses too (false: write-around). */
    bool fill_on_write = true;
};

/** MemCache hybrid configuration. */
struct MemCacheParams
{
    /** Share of NM exposed as flat memory (rest is cache), in [0, 99];
     *  rounded down to a 2KB multiple.  0 is the pure DRAM cache. */
    uint32_t mem_percent = 50;
    /** Ways per set of the cache region. */
    uint32_t ways = 2;
    /** Allocate on write misses too (false: write-around). */
    bool fill_on_write = true;
};

/** NM part flat memory, part cache of FM. */
class MemCachePolicy : public FlatMemoryPolicy
{
  public:
    MemCachePolicy(PolicyEnv env, MemCacheParams params);

    /** The pure DRAM cache: @p params at mem_percent 0. */
    MemCachePolicy(PolicyEnv env, DramCacheParams params);

    const char *name() const override
    {
        return params_.mem_percent == 0 ? "dramcache" : "memcache";
    }

    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    void writeback(Addr paddr, CoreId core, Tick now) override;
    Location locate(Addr paddr) const override;

    void checkpoint(Blob &b) override;

    /** NM bytes exposed as flat memory ([0, staticBytes()) of the flat
     *  space identity-maps onto NM). */
    uint64_t staticBytes() const { return static_bytes_; }

    /** The static region is NM's home prefix; the cache slots above it
     *  are nobody's home. */
    uint64_t homeNmBytes() const override { return static_bytes_; }

    uint64_t fills() const { return fills_; }
    uint64_t dirtyEvictions() const { return dirty_evictions_; }

    const BlockCacheDir &directory() const { return dir_; }

    /** Shadow-oracle self-tests ONLY (see BlockCacheDir). */
    BlockCacheDir &directoryForFaultInjection() { return dir_; }

  private:
    /** NM device byte address of cache slot @p slot: the slots live
     *  above the static region. */
    Addr
    slotAddr(uint64_t slot) const
    {
        return static_bytes_ + slot * kSubblockSize;
    }

    /** FM device location of cacheable 64B block @p block. */
    static Location
    fmHome(uint64_t block)
    {
        return Location{false, block * kSubblockSize};
    }

    /** Install @p block (evicting as needed); demand data already in
     *  flight carries the line, so only the eviction and the NM install
     *  write are extra traffic. */
    void fillBlock(uint64_t block, const Location &from, bool is_write,
                   CoreId core, Tick now);

    MemCacheParams params_;
    uint64_t static_bytes_;
    BlockCacheDir dir_;
    uint64_t fills_ = 0;
    uint64_t dirty_evictions_ = 0;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_MEMCACHE_HH
