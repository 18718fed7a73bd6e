/**
 * @file
 * Set-associative write-back, write-allocate cache with LRU replacement.
 *
 * The cache is functional (hit/miss and victim bookkeeping); access
 * latencies are applied by the memory hierarchy that owns it.  The
 * system defaults (sim::SystemConfig::defaults) follow Table II of the
 * paper for the L1D (16K/4w) and the 64B lines; the shared L2 is
 * 256K/16w, Table II's 8M scaled with the footprints.  The L1I is not
 * modeled.
 */

#ifndef SILC_CACHE_CACHE_HH
#define SILC_CACHE_CACHE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hh"

namespace silc {

class Blob;

namespace cache {

/** One bit per way of a set: the result of comparing its tags. */
using WayMask = uint64_t;

/** Most ways a set may have: one per bit of a WayMask. */
constexpr uint32_t kMaxAssociativity = std::numeric_limits<WayMask>::digits;

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
     * Checkpoint the array contents: per way its tag, valid bit, dirty
     * bit and LRU stamp.  The valid bit is the tag's (tag !=
     * kAddrInvalid); a blob whose valid bit disagrees, or whose empty
     * way holds a stamp, is fatal on reading.  Hit/miss statistics are
     * deliberately not captured: replays restore into a fresh cache and
     * measure from its zero counters.
     */
    void checkpoint(Blob &b);

  private:
    /** Bit w set when way w of the set whose first way is @p base holds
     *  @p tag; zero on a miss. */
    WayMask match(uint64_t base, Addr tag) const;
    /** A hit on way @p way: stamp it most recently used, and dirty it
     *  on a write. */
    void touch(uint64_t way, bool is_write);
    /** The miss half of access() and fill(): evict the victim of @p set
     *  (whose first way is @p base), reporting a dirty one, and install
     *  @p tag in its place. */
    AccessOutcome install(uint64_t base, Addr tag, uint64_t set,
                          bool dirty);

    uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr lineAddr(Addr tag, uint64_t set) const;

    CacheParams params_;
    uint64_t num_sets_;
    uint32_t line_shift_;
    uint32_t set_bits_;
    /**
     * The ways of set s are [s * associativity, (s + 1) * associativity)
     * of three parallel arrays, so a lookup reads only the tags.  Ways
     * are never invalidated: an empty way holds tag kAddrInvalid, stamp
     * 0 and a clean bit until its first install.
     */
    std::vector<Addr> tags_;
    /** LRU stamps: lru_clock_ at the way's last install or hit. */
    std::vector<uint64_t> lru_;
    std::vector<uint8_t> dirty_;
    uint64_t lru_clock_ = 0;

    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace cache
} // namespace silc

#endif // SILC_CACHE_CACHE_HH
