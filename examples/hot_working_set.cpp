/**
 * @file
 * Hot-working-set scenario: a skewed in-memory key-value-store-like
 * workload (xalancbmk profile: Zipf-hot pages that collide in the NM
 * index) and how SILC-FM's locking and associativity keep the hot set
 * pinned in fast memory even as the hot set drifts.
 *
 * Prints a feature ladder (swap-only -> +locking -> +associativity ->
 * +bypass), the locking activity, and predictor/history statistics —
 * the paper's Figure 6 story for one workload, with introspection.
 *
 *     SILC_WORKLOAD=xalanc ./example_hot_working_set
 */

#include <cstdio>

#include "core/silc_fm.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"

using namespace silc;

namespace {

struct Variant
{
    const char *label;
    bool assoc4;
    bool locking;
    bool bypass;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::checkArguments(argc, argv, false);
    sim::ExperimentOptions opts = sim::ExperimentOptions::fromEnv();
    const std::string workload = opts.workload.value_or("xalanc");
    sim::ParallelRunner runner(opts);

    std::printf("== hot working set on %s: SILC-FM feature ladder ==\n\n",
                workload.c_str());
    std::printf("%-22s %8s %8s %7s %9s %9s\n", "variant", "speedup",
                "accrate", "locks", "restores", "mig(MiB)");

    const Variant variants[] = {
        {"swap only (1-way)", false, false, false},
        {"+ locking", false, true, false},
        {"+ associativity (4)", true, true, false},
        {"+ bypassing", true, true, true},
    };

    for (const Variant &v : variants) {
        sim::SystemConfig cfg =
            sim::makeConfig(workload, "silcfm", opts);
        cfg.silc.associativity = v.assoc4 ? 4 : 1;
        cfg.silc.enable_locking = v.locking;
        cfg.silc.enable_bypass = v.bypass;

        sim::System system(cfg);
        sim::SimResult r = system.run();
        auto &silc_policy =
            dynamic_cast<core::SilcFmPolicy &>(system.policyRef());

        std::printf("%-22s %8.3f %8.3f %7llu %9llu %9.1f\n", v.label,
                    runner.speedup(r), r.access_rate,
                    static_cast<unsigned long long>(silc_policy.locks()),
                    static_cast<unsigned long long>(
                        silc_policy.restores()),
                    r.migration_bytes / 1048576.0);

        if (v.bypass) {
            std::printf(
                "\n-- full-feature introspection --\n"
                "locked ways now     : %llu\n"
                "way predictor hits  : %.1f%%\n"
                "location pred hits  : %.1f%%\n"
                "history table hits  : %llu of %llu lookups\n"
                "bypassed accesses   : %llu\n",
                static_cast<unsigned long long>(
                    silc_policy.metadata().lockedWays()),
                100.0 * silc_policy.predictor().wayHits() /
                    std::max<uint64_t>(
                        1, silc_policy.predictor().predictions()),
                100.0 * silc_policy.predictor().locationHits() /
                    std::max<uint64_t>(
                        1, silc_policy.predictor().predictions()),
                static_cast<unsigned long long>(
                    silc_policy.historyTable().hits()),
                static_cast<unsigned long long>(
                    silc_policy.historyTable().lookups()),
                static_cast<unsigned long long>(
                    silc_policy.bypassedAccesses()));
        }
    }

    std::printf("\nLocking pins pages whose aging counter crosses the "
                "threshold; associativity protects lukewarm pages from "
                "index conflicts; bypassing trades NM hits for overall "
                "bandwidth once the access rate exceeds the target.\n");
    return 0;
}
