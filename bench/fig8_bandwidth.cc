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
 *
 * --perf mode: run ONE fig8-class (bandwidth-bound, full channel
 * count) simulation and report simulator throughput on stderr as
 * "[perf] T ticks in X.XXs (Y.YY mticks/sec)".  This is the fixture
 * behind BENCH_fig8.json and the perf-smoke-fig8 CI gate: it times one
 * detailed simulation on one thread, which the grid benches — whose
 * wall time is set by run-level parallelism — cannot measure.  It
 * takes no other argument.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sim/grid.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

namespace {

/** The fig8-class perf fixture: paper bandwidth shape, one run. */
int
runPerfMode()
{
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    SystemConfig cfg = makeConfig("lbm", "silcfm", opts);
    // Full paper channel counts (the table runs use the scaled-down
    // machine): 8 HBM2 pseudo-channels against 4 DDR3 channels keeps
    // both devices busy, so the DRAM controllers carry real load.
    cfg.nm_timing = dram::hbm2Params();
    cfg.fm_timing = dram::ddr3Params();
    cfg.fm_timing.channels = 4;

    const auto t0 = std::chrono::steady_clock::now();
    System system(cfg);
    const SimResult r = system.run();
    const double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    const double mticks = secs > 0.0
        ? static_cast<double>(r.ticks) / 1e6 / secs
        : 0.0;

    std::printf("fig8-perf %s/%s cores=%s instr=%s ticks=%s ipc=%.3f\n",
                r.workload.c_str(), r.scheme.c_str(),
                u64str(r.cores).c_str(),
                u64str(opts.instructions_per_core).c_str(),
                u64str(r.ticks).c_str(), r.ipc);
    // Locale-stable footer; CI parses it with a fixed regex.
    std::fprintf(stderr, "[perf] %s ticks in %ss (%s mticks/sec)\n",
                 u64str(r.ticks).c_str(),
                 fixedDecimal(secs, 2).c_str(),
                 fixedDecimal(mticks, 2).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--perf") == 0)
        return runPerfMode();

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
