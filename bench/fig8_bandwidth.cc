/**
 * @file
 * Figure 8 — "Fraction of FM and NM Bandwidth Usage": per scheme, the
 * share of *demand* bytes serviced by NM (migration traffic excluded,
 * as in the paper).
 *
 * Paper shape to check (Section V-B): the ideal point is 0.8 (the NM
 * share of total system bandwidth); HMA ~0.71, PoM ~0.58, CAMEO lower,
 * CAMEO+P imbalanced towards NM, SILC-FM ~0.76 — within 4% of ideal
 * thanks to bypassing.
 *
 * --sample runs every cell through the statistical sampler
 * (src/sample/); nmDemandFraction then comes from the extrapolated
 * window demand bytes, and HMA falls back to a full run.
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
    Grid grid(argc, argv);

    // Same registry-driven matrix as fig7; silcfm last (means.back()).
    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();

    std::printf("=== Figure 8: NM share of demand bandwidth "
                "(ideal = 0.80) ===\n\n");

    const std::vector<std::string> workloads = trace::profileNames();
    std::vector<std::vector<Grid::Cell>> cells(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w)
        for (const std::string &scheme : schemes)
            cells[w].push_back(grid.submit(workloads[w], scheme));

    const std::vector<double> means =
        grid.table(workloads, schemes, cells, Grid::Metric::NmShare);
    std::printf("\nSILC-FM average NM share: %.2f (paper: 0.76, "
                "4%% below the 0.80 ideal)\n", means.back());
    return 0;
}
