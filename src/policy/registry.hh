/**
 * @file
 * The MemOrganization registry: every memory-organization scheme the
 * simulator knows (SILC-FM, the rivals it is compared against, and the
 * no-NM baseline) as one fixed table of named siblings, so configs,
 * benches, fuzz campaigns, and CI enumerate one source of truth instead
 * of hardcoded policy lists.
 *
 * Usage:
 *
 *     auto &reg = policy::SchemeRegistry::instance();
 *     const auto &scheme = reg.resolve("silcfm");   // fatal if unknown
 *     auto pol = scheme.factory(schemes_cfg, env);
 *
 * Table order is enumeration order and is part of the output contract:
 * `names()` drives the bench scheme x workload matrices, and "silcfm"
 * is the last row so comparison footers ("SILC-FM vs best
 * alternative") keep indexing the final column.
 */

#ifndef SILC_POLICY_REGISTRY_HH
#define SILC_POLICY_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/silc_fm.hh"
#include "policy/cameo.hh"
#include "policy/hma.hh"
#include "policy/memcache.hh"
#include "policy/pom.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/**
 * Parameter bundle covering every scheme in the table.  A factory reads
 * only its own member; carrying all of them keeps the factory signature
 * uniform and lets one struct ride through SystemConfig (which derives
 * from it), the fuzz campaign generator, and checkpoint plumbing
 * unchanged.
 */
struct SchemeConfig
{
    core::SilcFmParams silc;
    HmaParams hma;
    PomParams pom;
    CameoParams cameo;
    /** The pure DRAM cache: direct-mapped (Alloy's tags-and-data);
     *  its row pins mem_percent to 0. */
    MemCacheParams dramcache{.mem_percent = 0, .ways = 1};
    MemCacheParams memcache;
};

/** Builds a policy instance for one scheme. */
using SchemeFactory = std::unique_ptr<FlatMemoryPolicy> (*)(
    const SchemeConfig &, PolicyEnv);

/**
 * Static facts about a scheme the harness needs before building it.
 * Everything else follows from these or from the policy's type: every
 * scheme but the baseline needs NM and is a bench matrix column, and
 * tier 2 of the oracle attaches to whichever policy is a
 * core::SilcFmPolicy.
 */
struct SchemeTraits
{
    /** Is the speedup-normalization baseline, the no-NM machine
     *  (exactly one scheme). */
    bool baseline = false;
    /** Requires FM capacity to be a multiple of NM capacity. */
    bool fm_multiple_of_nm = true;
    /** Its state round-trips through FlatMemoryPolicy::checkpoint(), so
     *  it can be sampled (sample/sampling.hh).  Schemes whose behaviour
     *  is coupled to detailed-mode tick counts (HMA's epochs) are not:
     *  System::setFunctionalMode() refuses them, and they run in full
     *  detail when sampling is requested. */
    bool checkpointable = false;
};

/** One memory organization of the table. */
struct SchemeInfo
{
    std::string name;
    SchemeTraits traits;
    SchemeFactory factory;
};

/** Name -> scheme, in stable table order. */
class SchemeRegistry
{
  public:
    /** The process-wide registry, built once from the fixed table. */
    static SchemeRegistry &instance();

    /** Scheme for @p name (aliases resolve); fatal with the list of
     *  known names when unknown. */
    const SchemeInfo &resolve(const std::string &name) const;

    /** True when @p name (or alias) is in the table. */
    bool known(const std::string &name) const;

    /** All scheme names, table order. */
    std::vector<std::string> names() const;

    /** Names of the bench matrix schemes, every one but the baseline,
     *  table order; "silcfm" is last by construction. */
    std::vector<std::string> matrixNames() const;

    /** The traits.baseline scheme's name. */
    const std::string &baselineName() const;

  private:
    SchemeRegistry();

    /** The scheme @p name (or alias) names; nullptr when none. */
    const SchemeInfo *find(const std::string &name) const;

    std::vector<SchemeInfo> schemes_;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_REGISTRY_HH
