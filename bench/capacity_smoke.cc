/**
 * @file
 * Single-run driver for capacity validation: one (workload, scheme)
 * simulation (SILC_WORKLOAD, default mcf, and SILC_SCHEME) at exactly
 * the scale the SILC_* environment dictates, printing a one-line digest
 * and optionally writing the results JSON.
 *
 * This is the paper-capacity CI entry point: run it under
 * /usr/bin/time -v with SILC_NM_MIB=1024 SILC_FM_MIB=4096 SILC_CHECK=1
 * and feed the log to scripts/check_rss.py to enforce that paper-scale
 * capacities stay memory-lean (the sparse metadata contract).
 */

#include <cstdio>
#include <string>

#include "sim/result_writer.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    checkArguments(argc, argv, true);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    ResultWriter writer(jsonOutputPath(argc, argv), opts);
    const std::string workload = opts.workload.value_or("mcf");

    SystemConfig cfg = makeConfig(workload, opts.scheme, opts);
    std::printf("capacity_smoke: %s/%s NM=%s MiB FM=%s MiB cores=%u "
                "instr/core=%s check=%d\n",
                workload.c_str(), opts.scheme.c_str(),
                u64str(opts.nm_bytes >> 20).c_str(),
                u64str(opts.fm_bytes >> 20).c_str(), opts.cores,
                u64str(opts.instructions_per_core).c_str(),
                opts.check ? 1 : 0);
    std::fflush(stdout);

    System system(cfg);
    SimResult r = system.run();
    writer.add(r);
    const uint64_t checked = system.accessesChecked();

    std::printf("done: ticks=%s ipc=%.3f nm_demand_fraction=%.3f "
                "accesses_checked=%s\n",
                u64str(r.ticks).c_str(), r.ipc, r.nmDemandFraction(),
                u64str(checked).c_str());
    if (r.hit_tick_limit) {
        std::fprintf(stderr, "capacity_smoke: run hit the tick limit\n");
        return 1;
    }
    if (opts.check && checked == 0) {
        std::fprintf(stderr, "capacity_smoke: SILC_CHECK=1 but no "
                             "accesses were checked\n");
        return 1;
    }
    if (!writer.path().empty()) {
        writer.write();
        std::fprintf(stderr, "wrote %s\n", writer.path().c_str());
    }
    return 0;
}
