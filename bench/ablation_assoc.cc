/**
 * @file
 * Section III-C ablation — associativity: 1-way (direct-mapped) to
 * 8-way for the workloads the paper highlights (gcc's lukewarm blocks
 * gain the most from associativity; xalancbmk relies on locking
 * instead).  The paper adopts 4-way: 1->2 removes many conflicts,
 * 2->4 still helps, beyond that returns diminish.
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

    const std::vector<uint32_t> ways = {1, 2, 4, 8};
    const std::vector<std::string> workloads = {
        "xalanc", "gcc", "omnet", "mcf", "milc", "lbm",
    };

    std::printf("=== Associativity ablation (speedup over no-NM) ===\n\n");
    std::vector<std::string> columns;
    for (uint32_t w : ways)
        columns.push_back(std::to_string(w) + "-way");

    std::vector<std::vector<Grid::Cell>> cells(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.baseline(workloads[w]);
        for (uint32_t ways_i : ways) {
            SystemConfig cfg =
                makeConfig(workloads[w], "silcfm", grid.options());
            cfg.silc.associativity = ways_i;
            cells[w].push_back(grid.submit(cfg));
        }
    }

    grid.table(workloads, columns, cells, Grid::Metric::Speedup);
    std::printf("\n(paper adopts 4-way: most of the conflict removal "
                "comes by 4 ways)\n");
    return 0;
}
