/**
 * @file
 * Figure 6 — "Performance Improvement Breakdown": the SILC-FM feature
 * ladder per workload.  The stack starts from Random static placement,
 * then adds subblock swapping (direct-mapped, no locking/bypass), then
 * locking, then 4-way associativity, then bypassing.
 *
 * Paper shape to check (Section V-A): swapping alone gives the largest
 * jump (geomean 1.55 in the paper); locking adds ~11% (xalancbmk the
 * poster child), associativity ~8% (gcc), bypassing ~8% (milc), for a
 * total of 1.82.
 */

#include <cstdio>
#include <vector>

#include "sim/grid.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

namespace {

struct Variant
{
    const char *label;
    uint32_t assoc;
    bool locking;
    bool bypass;
};

constexpr Variant kVariants[] = {
    {"swap", 1, false, false},
    {"+lock", 1, true, false},
    {"+assoc", 4, true, false},
    {"+bypass", 4, true, true},
};

} // namespace

int
main(int argc, char **argv)
{
    Grid grid(argc, argv);

    std::printf("=== Figure 6: SILC-FM breakdown "
                "(speedup over no-NM baseline) ===\n\n");
    std::vector<std::string> columns = {"rand"};
    for (const Variant &v : kVariants)
        columns.push_back(v.label);

    const std::vector<std::string> workloads = trace::profileNames();
    std::vector<std::vector<Grid::Cell>> cells(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.baseline(workloads[w]);
        cells[w].push_back(grid.submit(workloads[w], "rand"));
        for (const Variant &v : kVariants) {
            SystemConfig cfg =
                makeConfig(workloads[w], "silcfm", grid.options());
            cfg.silc.associativity = v.assoc;
            cfg.silc.enable_locking = v.locking;
            cfg.silc.enable_bypass = v.bypass;
            cells[w].push_back(grid.submit(cfg));
        }
    }

    const std::vector<double> means =
        grid.table(workloads, columns, cells, Grid::Metric::Speedup);
    std::printf("\nfeature deltas (geomean): swap %+.1f%% over rand, "
                "lock %+.1f%%, assoc %+.1f%%, bypass %+.1f%%\n",
                100.0 * (means[1] / means[0] - 1.0),
                100.0 * (means[2] / means[1] - 1.0),
                100.0 * (means[3] / means[2] - 1.0),
                100.0 * (means[4] / means[3] - 1.0));
    std::printf("(paper: +55%% swap over static, +11%% lock, +8%% "
                "assoc, +8%% bypass)\n");
    return 0;
}
