/**
 * fuzz_check: seeded fuzzing campaigns for every registered scheme.
 *
 * Each campaign derives a parameter point (associativity, feature
 * flags, thresholds, windows) and an adversarial access pattern from
 * its seed, then replays the stream through a live policy built from
 * the scheme registry with the two-tier oracle attached: the
 * scheme-agnostic shadow-data checker for every scheme, plus the
 * untimed reference model in lockstep where one exists (SILC-FM).  On
 * the first divergence the failing trace is shrunk to a 1-minimal
 * reproducer and written as a replayable silctrace file.
 *
 *   fuzz_check [--scheme NAME|all] [--campaigns N] [--accesses M]
 *              [--seed S] [--replay FILE]
 *
 * The base seed S is --seed's value (default 1); campaign c uses seed
 * S + c.  SILC_FUZZ_SEED, its former environment spelling, is fatal
 * when set.  A seed's trace is the same under every scheme, so --scheme
 * only selects which policy replays it.  --replay re-runs one recorded
 * trace under the campaign derived from --seed and --scheme (print-outs
 * of failures name the exact command).  Exit status: 0 clean, 1
 * divergence.
 *
 * Counts and seeds are positive decimal integers (common/env.hh):
 * "1k", "0x10", 0 and negative values are fatal.
 *
 * Registered in ctest as one `fuzz_check --scheme X --campaigns 25`
 * entry per registered scheme so every tier-1 run fuzzes the whole
 * zoo; see TESTING.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/campaign.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "policy/registry.hh"
#include "trace/fuzz.hh"

using namespace silc;

namespace {

int
reportAndPersist(const check::CampaignConfig &cfg,
                 const std::vector<trace::FuzzAccess> &trace,
                 const check::CampaignFailure &failure)
{
    std::fprintf(stderr,
                 "fuzz_check: DIVERGENCE in campaign seed %llu (%s)\n"
                 "  at access %zu/%zu: %s\n",
                 static_cast<unsigned long long>(cfg.seed),
                 check::describeCampaign(cfg).c_str(),
                 failure.access_index, trace.size(),
                 failure.why.c_str());

    std::fprintf(stderr, "fuzz_check: shrinking...\n");
    auto fails = [&cfg](const std::vector<trace::FuzzAccess> &t) {
        return check::runCampaignTrace(cfg, t).has_value();
    };
    const std::vector<trace::FuzzAccess> minimal =
        check::shrinkTrace(trace, fails);

    const std::string path = "fuzz_fail_" + cfg.scheme + "_" +
        std::to_string(cfg.seed) + ".silctrace";
    check::writeFuzzTrace(path, minimal);
    const auto final_failure = check::runCampaignTrace(cfg, minimal);

    std::fprintf(stderr,
                 "fuzz_check: shrunk %zu -> %zu accesses, wrote %s\n"
                 "  minimal failure: %s\n"
                 "  replay: fuzz_check --scheme %s --replay %s "
                 "--seed %llu\n",
                 trace.size(), minimal.size(), path.c_str(),
                 final_failure ? final_failure->why.c_str() : "(gone?)",
                 cfg.scheme.c_str(), path.c_str(),
                 static_cast<unsigned long long>(cfg.seed));
    return 1;
}

int
runCampaigns(const std::string &scheme, uint64_t campaigns,
             uint64_t accesses, uint64_t base_seed)
{
    uint64_t total_accesses = 0;
    for (uint64_t c = 0; c < campaigns; ++c) {
        const uint64_t seed = base_seed + c;
        const check::CampaignConfig cfg =
            check::makeCampaign(seed, accesses, scheme);
        const std::vector<trace::FuzzAccess> trace =
            trace::generateAdversarialTrace(cfg.pattern, cfg.geometry,
                                            seed, accesses);
        const auto failure = check::runCampaignTrace(cfg, trace);
        if (failure)
            return reportAndPersist(cfg, trace, *failure);
        total_accesses += trace.size();
        std::printf("campaign %3llu seed %-6llu %-80s ok\n",
                    static_cast<unsigned long long>(c),
                    static_cast<unsigned long long>(seed),
                    check::describeCampaign(cfg).c_str());
    }
    std::printf("fuzz_check: %s: %llu campaigns, %llu accesses, "
                "0 divergences\n",
                scheme.c_str(),
                static_cast<unsigned long long>(campaigns),
                static_cast<unsigned long long>(total_accesses));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t campaigns = 25;
    uint64_t accesses = 4000;
    if (std::getenv("SILC_FUZZ_SEED") != nullptr)
        fatal("SILC_FUZZ_SEED was removed with the environment spelling "
              "of the base seed; unset it and pass --seed S instead");
    uint64_t base_seed = 1;
    std::string scheme = "silcfm";
    std::string replay_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "fuzz_check: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--campaigns") {
            campaigns = parsePositiveCount("--campaigns",
                                           value("--campaigns"));
        } else if (arg == "--accesses") {
            accesses = parsePositiveCount("--accesses", value("--accesses"));
        } else if (arg == "--seed") {
            base_seed = parsePositiveCount("--seed", value("--seed"));
        } else if (arg == "--scheme") {
            scheme = value("--scheme");
        } else if (arg == "--replay") {
            replay_path = value("--replay");
        } else {
            std::fprintf(stderr,
                         "fuzz_check: unknown argument '%s'\n"
                         "usage: fuzz_check [--scheme NAME|all] "
                         "[--campaigns N] [--accesses M] [--seed S] "
                         "[--replay FILE]\n",
                         arg.c_str());
            return 2;
        }
    }

    const policy::SchemeRegistry &reg = policy::SchemeRegistry::instance();
    if (scheme != "all" && !reg.known(scheme)) {
        std::fprintf(stderr, "fuzz_check: unknown scheme '%s'\n",
                     scheme.c_str());
        return 2;
    }

    if (!replay_path.empty()) {
        if (scheme == "all") {
            std::fprintf(stderr,
                         "fuzz_check: --replay needs one --scheme\n");
            return 2;
        }
        const check::CampaignConfig cfg =
            check::makeCampaign(base_seed, accesses, scheme);
        const std::vector<trace::FuzzAccess> trace =
            check::loadFuzzTrace(replay_path);
        std::printf("fuzz_check: replaying %zu accesses from %s under "
                    "seed %llu (%s)\n",
                    trace.size(), replay_path.c_str(),
                    static_cast<unsigned long long>(base_seed),
                    check::describeCampaign(cfg).c_str());
        const auto failure = check::runCampaignTrace(cfg, trace);
        if (failure) {
            std::printf("fuzz_check: DIVERGENCE at access %zu: %s\n",
                        failure->access_index, failure->why.c_str());
            return 1;
        }
        std::printf("fuzz_check: replay clean\n");
        return 0;
    }

    if (scheme == "all") {
        for (const std::string &name : reg.names()) {
            const int rc =
                runCampaigns(name, campaigns, accesses, base_seed);
            if (rc != 0)
                return rc;
        }
        return 0;
    }
    return runCampaigns(scheme, campaigns, accesses, base_seed);
}
