/**
 * @file
 * Section III-E — bandwidth balancing: sweep the bypass target access
 * rate on a bandwidth-bound workload and show that the optimum sits
 * near 0.8, not 1.0, because the system's NM:FM bandwidth ratio is 4:1
 * (servicing 1/(N+1) of requests from FM uses the idle FM bandwidth).
 *
 * SILC_WORKLOAD picks the workload (default milc, the paper's bypass
 * example).
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
    Grid grid(argc, argv, "FM bus utilisation");
    const std::string workload = grid.options().workload.value_or("milc");

    std::printf("=== Bypass target sweep on %s "
                "(Section III-E; optimum should be near 0.8) ===\n\n",
                workload.c_str());
    std::printf("%8s %10s %12s %12s %12s\n", "target", "speedup",
                "accessrate", "nm demand%", "fm util");

    struct Point
    {
        double target;
        bool enabled;
    };
    const std::vector<Point> points = {
        {0.50, true}, {0.60, true}, {0.70, true},  {0.80, true},
        {0.90, true}, {0.99, true}, {1.00, false},   // disabled = "1.0"
    };

    grid.baseline(workload);
    std::vector<Grid::Cell> jobs;
    for (const Point &pt : points) {
        SystemConfig cfg = makeConfig(workload, "silcfm", grid.options());
        cfg.silc.enable_bypass = pt.enabled;
        cfg.silc.bypass_target = pt.target;
        jobs.push_back(grid.submit(cfg));
    }

    double best_speedup = 0.0;
    double best_target = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &pt = points[i];
        SimResult r = jobs[i].get();
        const double s = grid.speedup(r);
        if (s > best_speedup) {
            best_speedup = s;
            best_target = pt.target;
        }
        std::printf("%8.2f %10.3f %12.3f %12.3f %12.3f\n", pt.target, s,
                    r.access_rate, r.nmDemandFraction(),
                    r.fm_bus_utilization);
        std::fflush(stdout);
    }

    std::printf("\nbest target: %.2f (speedup %.3f)\n", best_target,
                best_speedup);
    return 0;
}
