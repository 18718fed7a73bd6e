#include "sim/grid.hh"

#include <cstdio>
#include <future>
#include <numeric>
#include <utility>

#include "common/logging.hh"
#include "policy/registry.hh"
#include "sim/result_writer.hh"

namespace silc {
namespace sim {

namespace {

void
printRow(const std::string &label, const std::vector<double> &values)
{
    std::printf("%-10s", label.c_str());
    for (double v : values)
        std::printf(" %9.3f", v);
    std::printf("\n");
}

void
printRule(size_t columns)
{
    std::printf("----------");
    for (size_t i = 0; i < columns; ++i)
        std::printf("-%.9s", "---------");
    std::printf("\n");
}

} // namespace

Grid::Grid(int argc, char **argv, const char *unsampled)
    : opts_(ExperimentOptions::fromEnv()),
      json_path_(jsonOutputPath(argc, argv))
{
    if (checkArguments(argc, argv, true, "--sample")) {
        if (unsampled != nullptr)
            fatal("--sample: this bench prints %s, which sampling does "
                  "not estimate", unsampled);
        sampling_ = sample::SamplingConfig::fromEnv();
        return;
    }
    // Every recorded full-detail run carries its time series.
    if (!json_path_.empty())
        opts_.telemetry = true;
    runner_.emplace(opts_);
}

Grid::~Grid()
{
    if (runner_)
        runner_->printFooter();
    if (json_path_.empty())
        return;
    ResultWriter writer(json_path_, opts_);
    for (const Cell &cell : cells_)
        writer.add(cell.get());
    writer.write();
    std::fprintf(stderr, "[parallel] wrote %zu runs to %s\n",
                 writer.runs(), json_path_.c_str());
}

Grid::Cell
Grid::submit(SystemConfig cfg)
{
    Cell cell = runner_
        ? runner_->submitConfig(std::move(cfg))
        : std::async(std::launch::deferred,
                     [cfg = std::move(cfg), scfg = sampling_] {
                         return sample::runMaybeSampled(cfg, scfg);
                     }).share();
    cells_.push_back(cell);
    return cell;
}

Grid::Cell
Grid::submit(const std::string &workload, const std::string &scheme)
{
    if (policy::SchemeRegistry::instance().resolve(scheme).traits.baseline)
        return baseline(workload);
    return submit(makeConfig(workload, scheme, opts_));
}

Grid::Cell
Grid::baseline(const std::string &workload)
{
    auto it = baselines_.find(workload);
    if (it != baselines_.end())
        return it->second;
    const std::string &scheme =
        policy::SchemeRegistry::instance().baselineName();
    Cell cell = submit(makeConfig(workload, scheme, opts_));
    baselines_.emplace(workload, cell);
    return cell;
}

double
Grid::speedup(const SimResult &r)
{
    const Tick base = baseline(r.workload).get().ticks;
    return static_cast<double>(base) / static_cast<double>(r.ticks);
}

std::vector<double>
Grid::table(const std::vector<std::string> &rows,
            const std::vector<std::string> &columns,
            const std::vector<std::vector<Cell>> &cells, Metric metric)
{
    const bool speedups = metric == Metric::Speedup;
    std::printf("%-10s", "bench");
    for (const std::string &c : columns)
        std::printf(" %9s", c.c_str());
    std::printf("\n");
    printRule(columns.size());

    std::vector<std::vector<double>> per_column(columns.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        std::vector<double> row;
        for (size_t c = 0; c < columns.size(); ++c) {
            const SimResult &result = cells[r][c].get();
            row.push_back(speedups ? speedup(result)
                                   : result.nmDemandFraction());
            per_column[c].push_back(row.back());
        }
        printRow(rows[r], row);
        std::fflush(stdout);
    }
    printRule(columns.size());

    std::vector<double> means;
    for (const std::vector<double> &column : per_column) {
        const double sum = std::accumulate(column.begin(), column.end(), 0.0);
        means.push_back(speedups
                            ? geomean(column)
                            : sum / static_cast<double>(column.size()));
    }
    printRow(speedups ? "geomean" : "average", means);
    return means;
}

} // namespace sim
} // namespace silc
