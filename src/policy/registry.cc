#include "policy/registry.hh"

#include <sstream>

#include "common/logging.hh"
#include "policy/static_random.hh"

namespace silc {
namespace policy {

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry reg;
    return reg;
}

SchemeRegistry::SchemeRegistry()
{
    registerBuiltins();
}

void
SchemeRegistry::registerScheme(std::string name, SchemeTraits traits,
                               SchemeFactory factory)
{
    if (name.empty())
        fatal("scheme registry: empty scheme name");
    if (index_.count(name) != 0 || aliases_.count(name) != 0)
        fatal("scheme registry: duplicate registration of '%s'",
              name.c_str());
    index_[name] = schemes_.size();
    SchemeInfo info;
    info.name = std::move(name);
    info.traits = traits;
    info.factory = std::move(factory);
    schemes_.push_back(std::move(info));
}

void
SchemeRegistry::registerAlias(std::string alias, const std::string &target)
{
    if (index_.count(alias) != 0 || aliases_.count(alias) != 0)
        fatal("scheme registry: alias '%s' clashes with an existing name",
              alias.c_str());
    if (index_.count(target) == 0)
        fatal("scheme registry: alias '%s' targets unknown scheme '%s'",
              alias.c_str(), target.c_str());
    aliases_[std::move(alias)] = target;
}

const SchemeInfo &
SchemeRegistry::resolve(const std::string &name) const
{
    auto alias = aliases_.find(name);
    const std::string &canonical =
        alias == aliases_.end() ? name : alias->second;
    auto it = index_.find(canonical);
    if (it == index_.end()) {
        std::ostringstream known;
        for (size_t i = 0; i < schemes_.size(); ++i)
            known << (i != 0 ? ", " : "") << schemes_[i].name;
        fatal("unknown scheme '%s' (known schemes: %s)", name.c_str(),
              known.str().c_str());
    }
    return schemes_[it->second];
}

bool
SchemeRegistry::known(const std::string &name) const
{
    return index_.count(name) != 0 || aliases_.count(name) != 0;
}

std::vector<std::string>
SchemeRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(schemes_.size());
    for (const SchemeInfo &s : schemes_)
        out.push_back(s.name);
    return out;
}

std::vector<std::string>
SchemeRegistry::matrixNames() const
{
    std::vector<std::string> out;
    for (const SchemeInfo &s : schemes_) {
        if (s.traits.in_matrix)
            out.push_back(s.name);
    }
    return out;
}

const std::string &
SchemeRegistry::baselineName() const
{
    for (const SchemeInfo &s : schemes_) {
        if (s.traits.baseline)
            return s.name;
    }
    panic("scheme registry: no baseline scheme registered");
}

void
SchemeRegistry::registerBuiltins()
{
    // Order matters: names()/matrixNames() drive bench matrices and
    // silcfm must stay last (comparison footers read the final column).
    {
        SchemeTraits t;
        t.description = "no near memory: every access served from FM";
        t.needs_nm = false;
        t.baseline = true;
        t.in_matrix = false;
        t.fm_multiple_of_nm = false;
        t.checkpointable = true;
        registerScheme("fmonly", t,
                       [](const SchemeConfig &, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new FmOnlyPolicy(env));
                       });
    }
    {
        SchemeTraits t;
        t.description = "static identity interleave, no migration";
        t.checkpointable = true;
        registerScheme("rand", t,
                       [](const SchemeConfig &, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new StaticRandomPolicy(env));
                       });
    }
    {
        SchemeTraits t;
        t.description = "HMA: OS-assisted epoch page migration";
        registerScheme("hma", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new HmaPolicy(env, cfg.hma));
                       });
    }
    {
        SchemeTraits t;
        t.description = "CAMEO: line-granularity congruence-group swaps";
        t.checkpointable = true;
        registerScheme("cam", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           CameoParams p = cfg.cameo;
                           p.prefetch_degree = 0;
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new CameoPolicy(env, p));
                       });
    }
    {
        SchemeTraits t;
        t.description = "CAMEO + next-line prefetch into NM";
        t.checkpointable = true;
        registerScheme("camp", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           CameoParams p = cfg.cameo;
                           if (p.prefetch_degree == 0)
                               p.prefetch_degree = 3;
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new CameoPolicy(env, p));
                       });
    }
    {
        SchemeTraits t;
        t.description = "PoM: counter-triggered 2KB segment swaps";
        t.checkpointable = true;
        registerScheme("pom", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new PomPolicy(env, cfg.pom));
                       });
    }
    {
        SchemeTraits t;
        t.description = "pure die-stacked DRAM cache (NM not memory)";
        t.fm_multiple_of_nm = false;
        t.checkpointable = true;
        registerScheme("dramcache", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new DramCachePolicy(env, cfg.dramcache));
                       });
    }
    {
        SchemeTraits t;
        t.description =
            "MemCache hybrid: NM part flat memory, part FM cache";
        t.fm_multiple_of_nm = false;
        t.checkpointable = true;
        registerScheme("memcache", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new MemCachePolicy(env, cfg.memcache));
                       });
    }
    {
        SchemeTraits t;
        t.description =
            "SILC-FM: subblocked interleaved cache-like flat memory";
        t.has_reference_oracle = true;
        t.checkpointable = true;
        registerScheme("silcfm", t,
                       [](const SchemeConfig &cfg, PolicyEnv env) {
                           return std::unique_ptr<FlatMemoryPolicy>(
                               new core::SilcFmPolicy(env, cfg.silc));
                       });
    }
    registerAlias("cameo", "cam");
    registerAlias("silc", "silcfm");
}

} // namespace policy
} // namespace silc
