/**
 * @file
 * Figure 7 — "Performance Comparison with Other Schemes": speedup over
 * the no-NM baseline for every scheme the registry marks as a matrix
 * member (Random, HMA, CAMEO, CAMEO+P, PoM, the pure DRAM cache,
 * MemCache and SILC-FM) across all 14 Table III workloads, plus the
 * geometric mean.  The column list is enumerated from the registry, so
 * a new row of its scheme table shows up here without editing this
 * file.
 *
 * Paper shape to check (Section V-B): SILC-FM wins overall (+36% over
 * the best alternative); CAMEO is the strongest hardware baseline; HMA
 * beats Random but reacts slowly (gems degrades); PoM pays 2KB
 * migration bandwidth.
 *
 * Scale with SILC_CORES / SILC_INSTR / SILC_NM_MIB / SILC_FM_MIB;
 * SILC_THREADS controls the simulation fan-out.  --sample runs every
 * cell through the statistical sampler (src/sample/); HMA cannot
 * checkpoint and falls back to a full run, so the grid keeps its shape.
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
    const ExperimentOptions &opts = grid.options();

    // Every registry scheme flagged for the comparison matrix; silcfm
    // is the table's last row so means.back() below is the SILC-FM
    // column.
    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();

    std::printf("=== Figure 7: speedup over no-NM baseline ===\n");
    std::printf("(cores=%u, instr/core=%s, NM=%sMiB, FM=%sMiB)\n\n",
                opts.cores,
                std::to_string(opts.instructions_per_core).c_str(),
                std::to_string(opts.nm_bytes >> 20).c_str(),
                std::to_string(opts.fm_bytes >> 20).c_str());

    // Fan everything out first: each workload's baseline denominator,
    // then every (workload, scheme) pair.
    const std::vector<std::string> workloads = trace::profileNames();
    std::vector<std::vector<Grid::Cell>> cells(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.baseline(workloads[w]);
        for (const std::string &scheme : schemes)
            cells[w].push_back(grid.submit(workloads[w], scheme));
    }

    const std::vector<double> means =
        grid.table(workloads, schemes, cells, Grid::Metric::Speedup);
    const double silc = means.back();
    double best_other = 0.0;
    std::string best_name;
    for (size_t i = 0; i + 1 < means.size(); ++i) {
        if (means[i] > best_other) {
            best_other = means[i];
            best_name = schemes[i];
        }
    }
    std::printf("\nSILC-FM vs best alternative (%s): %+.1f%% "
                "(paper: +36%% over the state of the art)\n",
                best_name.c_str(), 100.0 * (silc / best_other - 1.0));
    return 0;
}
