/**
 * @file
 * The Energy-Delay Product claim (Sections I and V): SILC-FM reduces
 * EDP by ~13% versus CAMEO (the best state-of-the-art) because
 * die-stacked DRAM moves bits far more cheaply than off-chip DDR and
 * SILC-FM both shortens execution and shifts traffic onto NM.
 *
 * Prints per-workload energy and EDP for the baseline, CAMEO and
 * SILC-FM, then the geometric-mean EDP ratio.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sim/grid.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    Grid grid(argc, argv, "energy and EDP");

    std::printf("=== Energy / EDP: SILC-FM vs CAMEO ===\n\n");
    std::printf("%-10s | %10s %12s | %10s %12s | %8s\n", "bench",
                "cam mJ", "cam EDP", "silc mJ", "silc EDP",
                "EDP ratio");

    struct Row
    {
        Grid::Cell cam, silc, base;
    };
    const std::string baseline =
        policy::SchemeRegistry::instance().baselineName();
    const std::vector<std::string> workloads = trace::profileNames();
    std::vector<Row> jobs;
    for (const auto &workload : workloads) {
        jobs.push_back(Row{
            grid.submit(workload, "cam"),
            grid.submit(workload, "silcfm"),
            grid.submit(workload, baseline),
        });
    }

    std::vector<double> ratios;
    std::vector<double> silc_vs_base;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const std::string &workload = workloads[w];
        SimResult cam = jobs[w].cam.get();
        SimResult silc_r = jobs[w].silc.get();
        SimResult base = jobs[w].base.get();
        const double ratio = silc_r.edp / cam.edp;
        ratios.push_back(ratio);
        silc_vs_base.push_back(silc_r.edp / base.edp);
        std::printf("%-10s | %10.2f %12.3e | %10.2f %12.3e | %8.3f\n",
                    workload.c_str(), cam.energy_total_j * 1e3, cam.edp,
                    silc_r.energy_total_j * 1e3, silc_r.edp, ratio);
        std::fflush(stdout);
    }

    const double mean_ratio = geomean(ratios);
    std::printf("\ngeomean EDP(SILC-FM)/EDP(CAMEO) = %.3f "
                "(paper: 0.87, i.e. 13%% EDP savings)\n", mean_ratio);
    std::printf("geomean EDP(SILC-FM)/EDP(no-NM)  = %.3f\n",
                geomean(silc_vs_base));
    return 0;
}
