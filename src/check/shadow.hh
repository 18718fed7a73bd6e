/**
 * @file
 * The scheme-agnostic tier of the two-tier oracle: a shadow-data
 * invariant checker that works for ANY MemOrganization, with no
 * knowledge of the scheme's metadata.  It tracks, through the
 * policy::AccessObserver hook, which flat 64B block's bytes live at
 * every device location, and checks the invariants every organization
 * must uphold:
 *
 *  - every demand access observes the last write to its flat address
 *    (the serviced location holds the current version of the block,
 *    or held it when the access started, for schemes that migrate the
 *    line within the same access),
 *  - migrations never lose or duplicate bytes: after each access the
 *    block's locate() location holds its current data, and on periodic
 *    sweeps the flat -> device mapping is injective and in-bounds,
 *  - NM occupancy never exceeds NM capacity.
 *
 * Storage is sparse so the oracle scales to paper-size memories (a
 * dense per-block version vector alone is 2 GiB at 16 GB FM): the
 * checker records only the DEVIATIONS from the policy's static home
 * layout (FlatMemoryPolicy::homeLocation).  A location with no
 * explicit entry implicitly holds version 0 of its home block; blocks
 * that were ever written, migrated, or displaced are added to a
 * touched set, and sweeps walk that set — a block outside it is
 * provably still at home with version 0, because every notification
 * touches all blocks whose entries it moves (a silent displacement is
 * caught as a stale serviced/locate entry or as a collision with the
 * untouched block's implicit home).
 *
 * The SILC-FM-specific remap/metadata lockstep oracle
 * (check/differential.hh) is the second tier, layered on top where a
 * scheme has a reference model.  Like it, the shadow checker latches
 * the first violation (fuzzer mode) or panic()s
 * (Options::panic_on_divergence, the SILC_CHECK=1 hard gate).
 */

#ifndef SILC_CHECK_SHADOW_HH
#define SILC_CHECK_SHADOW_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/sparse_array.hh"
#include "policy/policy.hh"

namespace silc {
namespace check {

class ShadowChecker final : public policy::AccessObserver
{
  public:
    struct Options
    {
        /** Accesses between full locate()-sweep checks. */
        uint64_t sweep_interval = 1024;
        /** panic() on the first violation instead of latching it. */
        bool panic_on_divergence = false;
    };

    /**
     * @param policy the live policy to shadow; the caller must also
     *               attach this checker via policy.setAccessObserver()
     */
    explicit ShadowChecker(const policy::FlatMemoryPolicy &policy);
    ShadowChecker(const policy::FlatMemoryPolicy &policy, Options opts);

    void onDemandResolved(Addr paddr, bool is_write, CoreId core,
                          Addr pc,
                          const policy::Location &serviced) override;
    void onBlockCopied(const policy::Location &src,
                       const policy::Location &dst) override;
    void onBlocksSwapped(const policy::Location &a,
                         const policy::Location &b) override;

    /** A violation has been observed (first one is kept). */
    bool failed() const { return failed_; }
    /** Description of the first violation (empty while clean). */
    const std::string &failure() const { return failure_; }

    uint64_t accessesChecked() const { return checked_; }
    uint64_t sweepsRun() const { return sweeps_; }

    /**
     * Full sweep right now: bounds, injectivity, data currency, and NM
     * occupancy over every touched flat block (untouched blocks are at
     * home by construction).  Returns false (and latches the
     * violation) on failure.  Also runs automatically every
     * Options::sweep_interval accesses.
     */
    bool verifyFullState();

    /**
     * Rebuild the shadow map from the policy's current locate() state
     * and restart write tracking.  Call after restoring the policy from
     * a snapshot (the data layout reverted under the checker's feet).
     */
    void reseed();

  private:
    /** What a device location currently holds. */
    struct Entry
    {
        uint64_t block = 0;
        uint64_t version = 0;
        bool operator==(const Entry &o) const
        {
            return block == o.block && version == o.version;
        }
    };

    /** Explicit "this location holds nothing / unknown" marker. */
    static constexpr uint64_t kEmptyBlock = ~uint64_t(0);

    static uint64_t key(const policy::Location &loc)
    {
        return (loc.device_addr >> kSubblockBits) |
               (loc.in_nm ? (uint64_t(1) << 63) : 0);
    }

    static policy::Location
    locationOfKey(uint64_t k)
    {
        policy::Location loc;
        loc.in_nm = (k >> 63) != 0;
        loc.device_addr = (k & ~(uint64_t(1) << 63)) << kSubblockBits;
        return loc;
    }

    void fail(const std::string &why);
    bool sweep();

    /**
     * Contents of the location with key @p k: the explicit entry when
     * one was materialized (nullopt for the empty marker), else the
     * implicit version-0 home block, else nullopt for locations that
     * are nobody's home (e.g. DRAM-cache slots).
     */
    std::optional<Entry> lookup(uint64_t k) const;

    bool entryMatches(uint64_t k, const Entry &want) const;
    void touch(uint64_t block) { touched_.getOrCreate(block); }
    uint64_t versionOf(uint64_t block) const;

    const policy::FlatMemoryPolicy &policy_;
    Options opts_;

    uint64_t blocks_ = 0;
    /** device location -> block/version, only where deviating from the
     *  implicit home layout. */
    SparseArray<Entry> content_;
    /** Write version per flat block (absent = 0). */
    SparseArray<uint64_t> version_;
    /** Blocks possibly away from home or written (absent = at home,
     *  version 0).  Value unused. */
    SparseArray<uint8_t> touched_;
    /**
     * Pre-values at locations overwritten by copies/swaps since the
     * last demand resolved: a scheme that migrates the line as part of
     * the same access reads its data from where it was when the access
     * started.  Only the first displacement per location is kept (that
     * is the at-access-start value); cleared at every demand.
     */
    std::unordered_map<uint64_t, Entry> displaced_;

    bool failed_ = false;
    std::string failure_;
    uint64_t checked_ = 0;
    uint64_t sweeps_ = 0;
};

} // namespace check
} // namespace silc

#endif // SILC_CHECK_SHADOW_HH
