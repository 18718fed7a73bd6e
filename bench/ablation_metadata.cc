/**
 * @file
 * Metadata-path ablation (Sections III-D and III-F): how much of
 * SILC-FM's performance depends on the remap-metadata machinery —
 * the dedicated metadata channel, the way/location predictor, and the
 * history-driven batch fetch — versus an idealised free-metadata
 * configuration.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/grid.hh"

using namespace silc;
using namespace silc::sim;

namespace {

struct Variant
{
    const char *label;
    bool dedicated_channel;
    bool predictor;
    bool history;
    bool model_metadata;
};

constexpr Variant kVariants[] = {
    {"full", true, true, true, true},
    {"no-dedch", false, true, true, true},
    {"no-pred", true, false, true, true},
    {"no-hist", true, true, false, true},
    {"ideal-md", true, true, true, false},
};

} // namespace

int
main(int argc, char **argv)
{
    Grid grid(argc, argv);

    const std::vector<std::string> workloads = {
        "xalanc", "gcc", "omnet", "mcf", "lbm",
    };

    std::printf("=== Metadata-path ablation (speedup over no-NM) ===\n\n");
    std::vector<std::string> columns;
    for (const Variant &v : kVariants)
        columns.push_back(v.label);

    std::vector<std::vector<Grid::Cell>> cells(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        grid.baseline(workloads[w]);
        for (const Variant &v : kVariants) {
            SystemConfig cfg =
                makeConfig(workloads[w], "silcfm", grid.options());
            cfg.silc.dedicated_metadata_channel = v.dedicated_channel;
            cfg.silc.enable_predictor = v.predictor;
            cfg.silc.enable_history_fetch = v.history;
            cfg.silc.model_metadata_traffic = v.model_metadata;
            cells[w].push_back(grid.submit(cfg));
        }
    }

    grid.table(workloads, columns, cells, Grid::Metric::Speedup);
    std::printf("\n'ideal-md' bounds what perfect (free) metadata could "
                "buy; 'no-pred' shows the serialization cost the "
                "Section III-F predictor removes.\n");
    return 0;
}
