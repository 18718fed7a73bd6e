/**
 * @file
 * Set-associative write-back, write-allocate cache with LRU replacement.
 *
 * The cache is functional (hit/miss and victim bookkeeping); access
 * latencies are applied by the memory hierarchy that owns it.  Geometry
 * defaults follow Table II of the paper (L1I 64K/2w, L1D 16K/4w,
 * shared L2 8M/16w, 64B lines).
 */

#ifndef SILC_CACHE_CACHE_HH
#define SILC_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace silc {

class BlobWriter;
class BlobReader;

namespace cache {

/** Replacement policy selector. */
enum class Replacement { Lru, Random };

/** Cache geometry and behaviour. */
struct CacheParams
{
    std::string name = "cache";
    uint64_t size_bytes = 16 * 1024;
    uint32_t associativity = 4;
    uint32_t line_bytes = static_cast<uint32_t>(kSubblockSize);
    /**
     * Hit latency in CPU cycles (ticks).  The hierarchy charges l1d's
     * on an L1 hit and l1d's plus l2's on an L2 hit.
     */
    uint32_t latency_cycles = 4;
    Replacement replacement = Replacement::Lru;

    uint64_t numSets() const
    {
        return size_bytes / (static_cast<uint64_t>(line_bytes) *
                             associativity);
    }

    /** Sanity checks; fatal() on inconsistencies. */
    void validate() const;
};

/** Outcome of a cache access. */
struct AccessOutcome
{
    bool hit = false;
    /** A dirty victim was evicted and must be written back. */
    bool writeback = false;
    /** Line address of the dirty victim (valid when writeback). */
    Addr writeback_addr = kAddrInvalid;
};

/** One level of cache. */
class Cache
{
  public:
    explicit Cache(CacheParams params);

    /**
     * Access the line containing @p addr; on miss the line is allocated
     * (write-allocate) and a victim may be evicted.
     *
     * @param addr     byte address
     * @param is_write store (marks the line dirty)
     * @return hit/miss plus any dirty victim to write back
     */
    AccessOutcome access(Addr addr, bool is_write);

    /**
     * Hit-only access: on a hit, update LRU/dirty and count it exactly
     * like access(); on a miss, leave the cache (and the miss counter)
     * untouched and return false.  Fuses the probe()+access() pair on
     * the hierarchy's hit path into one set scan.
     */
    bool accessIfHit(Addr addr, bool is_write);

    /**
     * Fill the line containing @p addr without touching hit statistics —
     * used to install prefetched or migrated data.
     */
    AccessOutcome fill(Addr addr, bool dirty);

    /** True when the line containing @p addr is present (no LRU update). */
    bool probe(Addr addr) const;

    /**
     * Record a miss in the statistics without touching the array — used
     * when the fill is deferred (e.g. until an MSHR completes).
     */
    void noteMiss() { ++misses_; }

    /** Invalidate the line containing @p addr if present.
     *  @return true when the line was present and dirty. */
    bool invalidate(Addr addr);

    const CacheParams &params() const { return params_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t evictions() const { return evictions_; }
    uint64_t writebacks() const { return writebacks_; }

    double
    missRate() const
    {
        const uint64_t total = hits_ + misses_;
        return total == 0 ? 0.0
                          : static_cast<double>(misses_) / total;
    }

    /**
     * Serialize the array contents (tags, valid/dirty bits, LRU state)
     * for checkpointing.  Hit/miss statistics are deliberately NOT
     * captured: replays measure deltas from a fresh zero, so restore()
     * zeroes them.
     */
    void snapshot(BlobWriter &w) const;
    void restore(BlobReader &r);

  private:
    struct Line
    {
        Addr tag = kAddrInvalid;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    Line *findLine(Addr tag, uint64_t set);
    const Line *findLine(Addr tag, uint64_t set) const;
    /** Find @p tag in @p set; on miss, also report the first invalid way
     *  and the least-recently-used way (the LRU victim when every way is
     *  valid). */
    Line *scanSet(Addr tag, uint64_t set, Line **invalid_out,
                  Line **lru_out);
    Line &victimLine(uint64_t set);

    uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr lineAddr(Addr tag, uint64_t set) const;

    CacheParams params_;
    uint64_t num_sets_;
    uint32_t line_shift_;
    uint32_t set_bits_;
    std::vector<Line> lines_;
    uint64_t lru_clock_ = 0;
    uint64_t rr_victim_ = 0;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace cache
} // namespace silc

#endif // SILC_CACHE_CACHE_HH
