/**
 * @file
 * Table III — "Workload Descriptions": measured per-core LLC MPKI and
 * footprint for each synthetic benchmark, checked against its intended
 * class (low < 11, medium 11-32, high > 32).
 *
 * The paper's absolute footprints are GB-scale; this scaled system
 * preserves the footprint:NM ratios instead (see DESIGN.md), so the
 * footprint column reports both MiB and that ratio.
 */

#include <cstdio>
#include <vector>

#include "sim/grid.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    Grid grid(argc, argv, "footprints");
    const ExperimentOptions &opts = grid.options();

    std::printf("=== Table III: measured workload characteristics ===\n");
    std::printf("(per-core MPKI from the no-NM baseline; footprint = "
                "unique 2KB pages touched)\n\n");
    std::printf("%-10s %-8s %8s %12s %10s %7s\n", "bench", "class",
                "MPKI", "footprint", "x NM", "ok?");

    // These runs ARE the baselines.
    std::vector<Grid::Cell> jobs;
    for (const auto &profile : trace::table3Profiles())
        jobs.push_back(grid.baseline(profile.name));

    int misclassified = 0;
    size_t idx = 0;
    for (const auto &profile : trace::table3Profiles()) {
        SimResult r = jobs[idx++].get();
        const double footprint_mib =
            r.footprint_pages * kLargeBlockSize / 1048576.0;
        const double vs_nm =
            footprint_mib / (opts.nm_bytes / 1048576.0);

        const char *cls = trace::mpkiClassName(profile.mpki_class);
        bool ok = false;
        switch (profile.mpki_class) {
          case trace::MpkiClass::Low:
            ok = r.mpki < 11.0;
            break;
          case trace::MpkiClass::Medium:
            ok = r.mpki >= 11.0 && r.mpki <= 32.0;
            break;
          case trace::MpkiClass::High:
            ok = r.mpki > 32.0;
            break;
        }
        misclassified += ok ? 0 : 1;
        std::printf("%-10s %-8s %8.1f %9.1fMiB %10.2f %7s\n",
                    profile.name.c_str(), cls, r.mpki, footprint_mib,
                    vs_nm, ok ? "yes" : "NO");
        std::fflush(stdout);
    }

    std::printf("\n%s\n",
                misclassified == 0
                    ? "all 14 workloads fall in their Table III class"
                    : "WARNING: some workloads out of class");
    return misclassified == 0 ? 0 : 1;
}
