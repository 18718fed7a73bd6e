/**
 * @file
 * Figure 9 — "Performance Improvement with Various NM Capacities":
 * sweep the NM:FM ratio through 1/16, 1/8 and 1/4 (FM fixed) for a
 * representative workload subset.
 *
 * Paper shape to check (Section V-C): SILC-FM improves from 1.83 to
 * 2.04 as NM grows from 1/16 to 1/4 of FM and degrades gracefully when
 * NM shrinks (locking + associativity absorb the extra conflicts);
 * CAMEO is much more sensitive to the reduced number of sets; HMA and
 * PoM are comparatively flat.
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

    // Every matrix scheme sweeps the ratio: the registry decides the
    // roster, this bench only owns the NM dividers.
    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();
    const std::vector<uint64_t> dividers = {16, 8, 4};
    std::vector<std::string> columns;
    for (uint64_t d : dividers)
        columns.push_back("1/" + std::to_string(d));

    std::printf("=== Figure 9: speedup vs NM:FM capacity ratio "
                "(FM fixed at %s MiB) ===\n\n",
                std::to_string(opts.fm_bytes >> 20).c_str());

    // The whole (scheme, workload, ratio) grid is submitted up front;
    // the baselines are per-workload, independent of scheme and NM size.
    const std::vector<std::string> workloads =
        trace::representativeNames();
    for (const auto &workload : workloads)
        grid.baseline(workload);
    std::vector<std::vector<std::vector<Grid::Cell>>> cells(
        schemes.size());
    for (size_t k = 0; k < schemes.size(); ++k) {
        cells[k].resize(workloads.size());
        for (size_t w = 0; w < workloads.size(); ++w) {
            for (uint64_t d : dividers) {
                SystemConfig cfg = makeConfig(workloads[w], schemes[k],
                                              opts);
                cfg.nm_bytes = opts.fm_bytes / d;
                cells[k][w].push_back(grid.submit(cfg));
            }
        }
    }

    for (size_t k = 0; k < schemes.size(); ++k) {
        std::printf("--- %s ---\n", schemes[k].c_str());
        grid.table(workloads, columns, cells[k], Grid::Metric::Speedup);
        std::printf("\n");
    }

    std::printf("(paper: SILC-FM 1.83 -> 2.04 from 1/16 to 1/4; best "
                "alternative only 1.47 -> 1.65)\n");
    return 0;
}
