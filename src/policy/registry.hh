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
    DramCacheParams dramcache;
    MemCacheParams memcache;
};

/** Builds a policy instance for one scheme. */
using SchemeFactory = std::unique_ptr<FlatMemoryPolicy> (*)(
    const SchemeConfig &, PolicyEnv);

/** Static facts about a scheme the harness needs before building it. */
struct SchemeTraits
{
    /** One-line description for --help style listings. */
    const char *description = "";
    /** Needs a near-memory device (false only for the no-NM baseline). */
    bool needs_nm = true;
    /** Is the speedup-normalization baseline (exactly one scheme). */
    bool baseline = false;
    /** Included in registry-driven scheme x workload bench matrices. */
    bool in_matrix = true;
    /** Requires FM capacity to be a multiple of NM capacity. */
    bool fm_multiple_of_nm = true;
    /** Has a per-scheme lockstep ReferenceOracle beyond the shadow-data
     *  invariant checker every scheme gets. */
    bool has_reference_oracle = false;
    /** Its state round-trips through FlatMemoryPolicy::checkpoint(), so
     *  it can be sampled (sample/sampling.hh).  Schemes whose behaviour
     *  is coupled to detailed-mode tick counts (HMA's epochs) are not,
     *  and run in full detail when sampling is requested. */
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

    /** Names of matrix schemes (traits.in_matrix), table order;
     *  "silcfm" is last by construction. */
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
