/**
 * @file
 * Section IV ablation — the hotness threshold: the paper reports that
 * a threshold of 50 (with 1M-access aging) "works the best".  This
 * scaled system ages every instructions/8 accesses, so the sweep covers
 * the proportional range around the scaled default, plus locking
 * disabled entirely.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/grid.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    Grid grid(argc, argv);

    const std::vector<uint32_t> thresholds = {0, 4, 8, 12, 24, 48};
    const std::vector<std::string> workloads = {
        "xalanc", "gcc", "mcf", "milc", "lbm",
    };

    std::printf("=== Hot-threshold ablation (speedup over no-NM; 0 = "
                "locking disabled) ===\n\n");
    std::vector<std::string> columns;
    for (uint32_t t : thresholds)
        columns.push_back(t == 0 ? "off" : "t=" + std::to_string(t));

    std::vector<std::vector<Grid::Cell>> cells(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.baseline(workloads[w]);
        for (uint32_t threshold : thresholds) {
            SystemConfig cfg =
                makeConfig(workloads[w], "silcfm", grid.options());
            if (threshold == 0) {
                cfg.silc.enable_locking = false;
            } else {
                cfg.silc.hot_threshold = threshold;
            }
            cells[w].push_back(grid.submit(cfg));
        }
    }

    grid.table(workloads, columns, cells, Grid::Metric::Speedup);
    std::printf("\n(paper: threshold 50 at 1M-access aging; this "
                "system's default is the proportional equivalent)\n");
    return 0;
}
