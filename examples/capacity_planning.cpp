/**
 * @file
 * Capacity planning scenario: how much die-stacked NM does a memory-
 * bound workload need?  Sweeps the NM:FM capacity ratio (as in the
 * paper's Figure 9) for one workload and prints speedup, access rate
 * and migration overhead per point — the numbers an architect would use
 * to size the stack.
 *
 *     SILC_WORKLOAD=mcf SILC_SCHEME=silcfm ./example_capacity_planning
 */

#include <cstdio>
#include <vector>

#include "policy/registry.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

using namespace silc;

int
main(int argc, char **argv)
{
    sim::checkArguments(argc, argv, false);
    sim::ExperimentOptions opts = sim::ExperimentOptions::fromEnv();
    const std::string workload = opts.workload.value_or("mcf");
    const std::string scheme =
        policy::SchemeRegistry::instance().resolve(opts.scheme).name;
    sim::ParallelRunner runner(opts);

    std::printf("== NM capacity planning: %s under %s ==\n",
                workload.c_str(), scheme.c_str());
    std::printf("FM fixed at %llu MiB; footprint scales with the "
                "workload profile.\n\n",
                static_cast<unsigned long long>(opts.fm_bytes >> 20));
    std::printf("%8s %10s %8s %8s %12s %12s\n", "NM:FM", "NM(MiB)",
                "speedup", "accrate", "mig(MiB)", "missLat");

    const std::vector<uint64_t> dividers = {16, 8, 4, 2};
    for (uint64_t div : dividers) {
        sim::SystemConfig cfg = sim::makeConfig(workload, scheme, opts);
        cfg.nm_bytes = opts.fm_bytes / div;
        const sim::SimResult r = runner.submitConfig(cfg).get();
        std::printf("   1/%-3llu %10.1f %8.3f %8.3f %12.1f %12.0f\n",
                    static_cast<unsigned long long>(div),
                    cfg.nm_bytes / 1048576.0, runner.speedup(r),
                    r.access_rate, r.migration_bytes / 1048576.0,
                    r.avg_miss_latency);
    }

    std::printf("\nHint: the knee of the speedup curve is the "
                "cost-effective stack size for this workload.\n");
    return 0;
}
