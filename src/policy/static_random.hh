/**
 * @file
 * Static (no-migration) placement, which serves two schemes:
 *
 *  - rand: the paper's "rand" comparison — NM + FM exposed as one flat
 *    space, pages placed randomly at allocation time (by the
 *    translation layer), never migrated.
 *  - fmonly: the paper's speedup baseline — the same policy built
 *    without an NM device, so the flat space is FM alone and every
 *    access is serviced by FM.
 */

#ifndef SILC_POLICY_STATIC_RANDOM_HH
#define SILC_POLICY_STATIC_RANDOM_HH

#include "policy/policy.hh"

namespace silc {
namespace policy {

/**
 * Random static placement over NM + FM.  The address space is the
 * identity layout (NM low, FM high); randomness comes from the
 * first-touch allocator picking frames uniformly over the whole space,
 * so an NM-capacity fraction of pages land in NM and stay there.  With
 * no NM device in the environment this is the no-NM baseline.
 */
class StaticRandomPolicy : public FlatMemoryPolicy
{
  public:
    explicit StaticRandomPolicy(PolicyEnv env);

    const char *name() const override
    {
        return env_.nm != nullptr ? "rand" : "fmonly";
    }

    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    Location locate(Addr paddr) const override;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_STATIC_RANDOM_HH
