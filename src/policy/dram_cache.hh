/**
 * @file
 * A pure die-stacked DRAM cache (Alloy-style tags-and-data, cf.
 * Qureshi & Loh, MICRO 2012, and the hybrid-memory comparison points in
 * Bakhshalipour et al.): NM is NOT part of the OS-visible flat space —
 * it is a hardware-managed cache of FM at 64B granularity, with the tag
 * stored alongside the data so a hit costs one extended NM burst.
 *
 * Contrast with the flat schemes: the OS address space is FM alone, so
 * NM capacity adds no memory, only locality — the trade-off the SILC-FM
 * paper's flat organization is designed to beat.
 */

#ifndef SILC_POLICY_DRAM_CACHE_HH
#define SILC_POLICY_DRAM_CACHE_HH

#include <cstdint>

#include "policy/block_cache.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/** Die-stacked DRAM cache configuration. */
struct DramCacheParams
{
    /** Ways per set (Alloy adopts 1: direct-mapped TAD). */
    uint32_t ways = 1;
    /** Tag bytes fetched/written alongside each 64B line. */
    uint32_t tag_bytes = 8;
    /** Allocate on write misses too (false: write-around). */
    bool fill_on_write = true;
};

/** NM as a pure cache of FM. */
class DramCachePolicy : public FlatMemoryPolicy
{
  public:
    DramCachePolicy(PolicyEnv env, DramCacheParams params);

    const char *name() const override { return "dramcache"; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    void writeback(Addr paddr, CoreId core, Tick now) override;
    Location locate(Addr paddr) const override;

    void snapshotState(BlobWriter &w) const override;
    void restoreState(BlobReader &r) override;

    // NM is invisible to the OS: every flat block homes in FM, and no
    // NM slot is any block's home.
    Location
    homeLocation(Addr paddr) const override
    {
        return Location{false, subblockAddr(paddr)};
    }

    Addr
    homeFlatAddr(const Location &loc) const override
    {
        return loc.in_nm ? kAddrInvalid : loc.device_addr;
    }

    uint64_t homeNmBytes() const override { return 0; }

    void forEachDisplacedBlock(
        const std::function<void(uint64_t)> &fn) const override;

    uint64_t fills() const { return fills_; }
    uint64_t dirtyEvictions() const { return dirty_evictions_; }

    const BlockCacheDir &directory() const { return dir_; }

    /** Shadow-oracle self-tests ONLY (see BlockCacheDir). */
    BlockCacheDir &directoryForFaultInjection() { return dir_; }

  protected:
    /** For subclasses that cache with only part of NM: @p slots is the
     *  number of 64B cache slots the directory covers. */
    DramCachePolicy(PolicyEnv env, DramCacheParams params,
                    uint64_t slots);

    /** Install @p block (evicting as needed); demand data already in
     *  flight carries the line, so only the eviction and the NM install
     *  write are extra traffic. */
    void fillBlock(uint64_t block, const Location &from, bool is_write,
                   CoreId core, Tick now);

    /** The full cache lookup/miss/fill path for one demand access to
     *  cacheable 64B block @p block (MemCache routes its dynamic-region
     *  accesses here). */
    void cacheDemand(uint64_t block, Addr paddr, bool is_write,
                     CoreId core, Addr pc, DemandCallback done, Tick now);

    /** FM device location of cacheable 64B block @p block. */
    virtual Location fmHome(uint64_t block) const;

    /** NM device byte address of cache slot @p slot. */
    virtual Addr slotAddr(uint64_t slot) const;

    /** Cacheable block index of device-sized subblock address @p sub, or
     *  BlockCacheDir::kNoBlock when the address is not cacheable (the
     *  MemCache static region). */
    virtual uint64_t cachedBlockOf(Addr sub) const;

    DramCacheParams params_;
    BlockCacheDir dir_;
    uint64_t fills_ = 0;
    uint64_t dirty_evictions_ = 0;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_DRAM_CACHE_HH
