/**
 * @file
 * Quickstart: build a system, run one workload under SILC-FM, and print
 * the headline metrics.
 *
 *     ./example_quickstart [--stats]
 *
 * The run comes from the bench environment knobs (SILC_WORKLOAD,
 * default mcf; SILC_SCHEME, default silcfm; SILC_CORES, SILC_INSTR,
 * SILC_NM_MIB, SILC_FM_MIB, SILC_SEED; see sim/experiment.hh), e.g.
 *
 *     SILC_SCHEME=memcache SILC_CORES=2 SILC_INSTR=50000 \
 *         ./example_quickstart
 *
 * --stats adds a gem5-style per-component statistics dump.
 */

#include <cstdio>
#include <sstream>

#include "policy/registry.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

using namespace silc;

int
main(int argc, char **argv)
{
    const bool stats = sim::checkArguments(argc, argv, false, "--stats");
    const sim::ExperimentOptions opts = sim::ExperimentOptions::fromEnv();

    const std::string workload = opts.workload.value_or("mcf");
    // Aliases (cameo, silc) resolve to the registered name.
    const std::string scheme =
        policy::SchemeRegistry::instance().resolve(opts.scheme).name;

    std::printf("== SILC-FM quickstart ==\n");
    std::printf("workload   : %s (%s MPKI class)\n", workload.c_str(),
                trace::mpkiClassName(
                    trace::findProfile(workload).mpki_class));
    std::printf("policy     : %s\n", scheme.c_str());
    std::printf("cores      : %u\n", opts.cores);
    std::printf("NM / FM    : %llu MiB / %llu MiB\n",
                static_cast<unsigned long long>(opts.nm_bytes >> 20),
                static_cast<unsigned long long>(opts.fm_bytes >> 20));

    const Tick baseline = sim::ParallelRunner(opts).baselineTicks(workload);
    sim::System system(sim::makeConfig(workload, scheme, opts));
    const sim::SimResult r = system.run();
    const double speedup =
        static_cast<double>(baseline) / static_cast<double>(r.ticks);

    std::printf("\n-- results --\n");
    std::printf("execution time : %llu ticks (%.3f ms at 3.2 GHz)\n",
                static_cast<unsigned long long>(r.ticks),
                r.seconds() * 1e3);
    std::printf("speedup vs no-NM baseline : %.3f\n", speedup);
    std::printf("IPC per core   : %.3f\n", r.ipc);
    std::printf("LLC MPKI       : %.1f\n", r.mpki);
    std::printf("access rate    : %.3f (fraction of LLC misses "
                "serviced by NM)\n",
                r.access_rate);
    std::printf("avg miss lat   : %.0f ticks\n", r.avg_miss_latency);
    std::printf("NM traffic     : %.1f MiB (%.1f MiB demand)\n",
                r.nm_total_bytes / 1048576.0,
                r.nm_demand_bytes / 1048576.0);
    std::printf("FM traffic     : %.1f MiB (%.1f MiB demand)\n",
                r.fm_total_bytes / 1048576.0,
                r.fm_demand_bytes / 1048576.0);
    std::printf("migration      : %.1f MiB\n",
                r.migration_bytes / 1048576.0);
    std::printf("energy         : %.2f mJ (EDP %.3e Js)\n",
                r.energy_total_j * 1e3, r.edp);

    if (stats) {
        std::printf("\n-- component statistics --\n");
        std::ostringstream os;
        system.dumpStats(os);
        std::fputs(os.str().c_str(), stdout);
    }
    return 0;
}
