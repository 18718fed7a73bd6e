/**
 * @file
 * PoM — "Part of Memory" (Sim et al., ISCA 2014) as evaluated by the
 * SILC-FM paper: 2KB large blocks migrate between NM and FM within
 * direct-mapped congruence groups once a per-block competing counter
 * crosses a threshold.  Only one member of a group can be NM-resident at
 * a time; migrating a new member first restores the old one.
 *
 * The defining cost: every migration moves the entire 2KB block (all 32
 * subblocks in both directions), which wastes bandwidth when spatial
 * locality is low — exactly what SILC-FM's subblocking avoids.
 */

#ifndef SILC_POLICY_POM_HH
#define SILC_POLICY_POM_HH

#include <cstdint>

#include "common/sparse_array.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/** PoM configuration. */
struct PomParams
{
    /** Accesses a non-resident block must accumulate before migrating. */
    uint32_t migration_threshold = 6;
    /** Demand accesses between counter halvings (competing counters). */
    uint64_t decay_interval = 200'000;
};

/** PoM policy. */
class PomPolicy : public FlatMemoryPolicy
{
  public:
    PomPolicy(PolicyEnv env, PomParams params);

    const char *name() const override { return "pom"; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    Location locate(Addr paddr) const override;

    void checkpoint(Blob &b) override;

    uint64_t migrations() const { return migrations_; }
    uint64_t restores() const { return restores_; }

  private:
    uint64_t groupOf(uint64_t page) const { return page % nm_pages_; }

    uint32_t
    memberOf(uint64_t page) const
    {
        return static_cast<uint32_t>(page / nm_pages_);
    }

    /** FM device byte address of member @p m (>= 1) of group @p g. */
    Addr fmHome(uint64_t g, uint32_t m) const;

    /** Member occupying the NM frame of group @p g. */
    uint8_t resident(uint64_t g) const { return resident_.get(g, 0); }

    /** Key of member @p m's competing counter in group @p g. */
    uint64_t
    counterKey(uint64_t g, uint32_t m) const
    {
        return g * members_ + m;
    }

    /** Swap the 2KB NM frame of group @p g with FM home of member @p m. */
    void swapFrame(uint64_t g, uint32_t m, CoreId core, Tick now);

    /** Migrate member @p m into NM (restoring the present one first). */
    void migrate(uint64_t g, uint32_t m, CoreId core, Tick now);

    void decayCounters();

    PomParams params_;
    uint64_t nm_pages_;
    uint32_t members_;   ///< K + 1
    /** Which member occupies the NM frame of each group (absent: 0,
     *  the native one). */
    SparseArray<uint8_t> resident_;
    /** Competing counters by counterKey() (absent: 0). */
    SparseArray<uint8_t> counters_;
    uint64_t accesses_ = 0;
    uint64_t migrations_ = 0;
    uint64_t restores_ = 0;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_POM_HH
