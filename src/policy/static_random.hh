/**
 * @file
 * The two static (no-migration) schemes:
 *
 *  - FmOnlyPolicy: the paper's speedup baseline — a system without any
 *    die-stacked NM; the flat space is FM alone.
 *  - StaticRandomPolicy: the paper's "rand" comparison — NM + FM exposed
 *    as one flat space, pages placed randomly at allocation time (by the
 *    translation layer), never migrated.
 */

#ifndef SILC_POLICY_STATIC_RANDOM_HH
#define SILC_POLICY_STATIC_RANDOM_HH

#include "policy/policy.hh"

namespace silc {
namespace policy {

/** No-NM baseline: every access is serviced by FM. */
class FmOnlyPolicy : public FlatMemoryPolicy
{
  public:
    explicit FmOnlyPolicy(PolicyEnv env);

    const char *name() const override { return "fmonly"; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    Location locate(Addr paddr) const override;

    // The flat space is FM alone, even when an NM device exists in the
    // environment (matrix runs give every scheme both devices): the
    // identity-layout defaults would wrongly home low addresses in NM.
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

    /** Static placement: nothing is ever displaced. */
    void
    forEachDisplacedBlock(
        const std::function<void(uint64_t)> &) const override
    {
    }
};

/**
 * Random static placement over NM + FM.  The address space is the
 * identity layout (NM low, FM high); randomness comes from the
 * first-touch allocator picking frames uniformly over the whole space,
 * so an NM-capacity fraction of pages land in NM and stay there.
 */
class StaticRandomPolicy : public FlatMemoryPolicy
{
  public:
    explicit StaticRandomPolicy(PolicyEnv env);

    const char *name() const override { return "rand"; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    Location locate(Addr paddr) const override;

    /** Static identity placement: nothing is ever displaced (skips the
     *  base class's O(flat blocks) comparison scan on reseed). */
    void
    forEachDisplacedBlock(
        const std::function<void(uint64_t)> &) const override
    {
    }
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_STATIC_RANDOM_HH
