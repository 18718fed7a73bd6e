/**
 * @file
 * The MemOrganization registry: every memory-organization scheme the
 * simulator knows (SILC-FM, the rivals it is compared against, and the
 * no-NM baseline) registered as siblings under a string name, so
 * configs, benches, fuzz campaigns, and CI enumerate one source of
 * truth instead of hardcoded policy lists.
 *
 * Usage:
 *
 *     auto &reg = policy::SchemeRegistry::instance();
 *     const auto &scheme = reg.resolve("silcfm");   // fatal if unknown
 *     auto pol = scheme.factory(schemes_cfg, env);
 *
 * Registration order is enumeration order and is part of the output
 * contract: `names()` drives the bench scheme x workload matrices, and
 * "silcfm" is registered last so comparison footers ("SILC-FM vs best
 * alternative") keep indexing the final column.
 */

#ifndef SILC_POLICY_REGISTRY_HH
#define SILC_POLICY_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/silc_fm.hh"
#include "policy/cameo.hh"
#include "policy/dram_cache.hh"
#include "policy/hma.hh"
#include "policy/memcache.hh"
#include "policy/pom.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/**
 * Parameter bundle covering every registered scheme.  A factory reads
 * only its own member; carrying all of them keeps the factory signature
 * uniform and lets one struct ride through SystemConfig, the fuzz
 * campaign generator, and snapshot plumbing unchanged.
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
using SchemeFactory = std::function<std::unique_ptr<FlatMemoryPolicy>(
    const SchemeConfig &, PolicyEnv)>;

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
    /** Its state round-trips through snapshotState()/restoreState(), so
     *  it can be sampled (sample/sampling.hh).  Schemes whose behaviour
     *  is coupled to detailed-mode tick counts (HMA's epochs) are not,
     *  and run in full detail when sampling is requested. */
    bool checkpointable = false;
};

/** One registered memory organization. */
struct SchemeInfo
{
    std::string name;
    SchemeTraits traits;
    SchemeFactory factory;
};

/** Name -> scheme, in stable registration order. */
class SchemeRegistry
{
  public:
    /** The process-wide registry, builtins pre-registered. */
    static SchemeRegistry &instance();

    /** Register a scheme; fatal on a duplicate or empty name. */
    void registerScheme(std::string name, SchemeTraits traits,
                        SchemeFactory factory);

    /** Register @p alias for existing @p target (fatal if clashing). */
    void registerAlias(std::string alias, const std::string &target);

    /** Scheme for @p name (aliases resolve); fatal with the list of
     *  known names when unknown. */
    const SchemeInfo &resolve(const std::string &name) const;

    /** True when @p name (or alias) is registered. */
    bool known(const std::string &name) const;

    /** All scheme names, registration order. */
    std::vector<std::string> names() const;

    /** Names of matrix schemes (traits.in_matrix), registration order;
     *  "silcfm" is last by construction. */
    std::vector<std::string> matrixNames() const;

    /** The traits.baseline scheme's name. */
    const std::string &baselineName() const;

  private:
    SchemeRegistry();

    void registerBuiltins();

    std::vector<SchemeInfo> schemes_;
    std::unordered_map<std::string, size_t> index_;
    std::unordered_map<std::string, std::string> aliases_;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_REGISTRY_HH
