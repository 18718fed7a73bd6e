#include "policy/registry.hh"

#include <sstream>

#include "common/logging.hh"
#include "policy/static_random.hh"

namespace silc {
namespace policy {

namespace {

using PolicyPtr = std::unique_ptr<FlatMemoryPolicy>;

/** Alias -> canonical scheme name. */
constexpr const char *kAliases[][2] = {
    {"cameo", "cam"},
    {"silc", "silcfm"},
};

} // namespace

SchemeRegistry &
SchemeRegistry::instance()
{
    static SchemeRegistry reg;
    return reg;
}

SchemeRegistry::SchemeRegistry()
    // Order matters: names()/matrixNames() drive bench matrices and
    // silcfm must stay last (comparison footers read the final column).
    : schemes_{
          {"fmonly",
           {.baseline = true,
            .fm_multiple_of_nm = false,
            .checkpointable = true},
           [](const SchemeConfig &, PolicyEnv env) -> PolicyPtr {
               // Static placement without NM, even where the env
               // carries an NM device (fuzz campaigns give every
               // scheme both).
               env.nm = nullptr;
               return std::make_unique<StaticRandomPolicy>(env);
           }},
          {"rand",
           {.checkpointable = true},
           [](const SchemeConfig &, PolicyEnv env) -> PolicyPtr {
               return std::make_unique<StaticRandomPolicy>(env);
           }},
          {"hma",
           {},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               return std::make_unique<HmaPolicy>(env, cfg.hma);
           }},
          {"cam",
           {.checkpointable = true},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               CameoParams p = cfg.cameo;
               p.prefetch_degree = 0;
               return std::make_unique<CameoPolicy>(env, p);
           }},
          {"camp",
           {.checkpointable = true},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               CameoParams p = cfg.cameo;
               if (p.prefetch_degree == 0)
                   p.prefetch_degree = 3;
               return std::make_unique<CameoPolicy>(env, p);
           }},
          {"pom",
           {.checkpointable = true},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               return std::make_unique<PomPolicy>(env, cfg.pom);
           }},
          {"dramcache",
           {.fm_multiple_of_nm = false, .checkpointable = true},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               MemCacheParams p = cfg.dramcache;
               p.mem_percent = 0;
               return std::make_unique<MemCachePolicy>(env, p);
           }},
          {"memcache",
           {.fm_multiple_of_nm = false, .checkpointable = true},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               return std::make_unique<MemCachePolicy>(env,
                                                       cfg.memcache);
           }},
          {"silcfm",
           {.checkpointable = true},
           [](const SchemeConfig &cfg, PolicyEnv env) -> PolicyPtr {
               return std::make_unique<core::SilcFmPolicy>(env,
                                                           cfg.silc);
           }},
      }
{
}

const SchemeInfo *
SchemeRegistry::find(const std::string &name) const
{
    const char *canonical = name.c_str();
    for (const auto &alias : kAliases) {
        if (name == alias[0])
            canonical = alias[1];
    }
    for (const SchemeInfo &s : schemes_) {
        if (s.name == canonical)
            return &s;
    }
    return nullptr;
}

const SchemeInfo &
SchemeRegistry::resolve(const std::string &name) const
{
    const SchemeInfo *scheme = find(name);
    if (scheme == nullptr) {
        std::ostringstream known;
        for (size_t i = 0; i < schemes_.size(); ++i)
            known << (i != 0 ? ", " : "") << schemes_[i].name;
        fatal("unknown scheme '%s' (known schemes: %s)", name.c_str(),
              known.str().c_str());
    }
    return *scheme;
}

bool
SchemeRegistry::known(const std::string &name) const
{
    return find(name) != nullptr;
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
        if (!s.traits.baseline)
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
    panic("scheme registry: no baseline scheme in the table");
}

} // namespace policy
} // namespace silc
