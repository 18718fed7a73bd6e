/**
 * @file
 * The one front end of the figure benches: runs submitted up front and
 * read back, in submission order, as tables.
 *
 * A Grid reads ExperimentOptions from the environment and takes two
 * arguments: "--json <path>" (or "--json=<path>") records every
 * submitted run, in submission order, as one silc.results.v1 document
 * (sim/result_writer.hh); "--sample" runs each run through the
 * statistical sampler (sample/sampling.hh).  Any other argument is
 * fatal.
 *
 * In full detail every run is a ParallelRunner job, so the grid runs
 * SILC_THREADS wide, and --json also records each run's epoch time
 * series.  Sampled, runs go one at a time on the calling thread (the
 * sampler has pools of its own), lazily, as they are read, so tables
 * still print row by row.  Either way stdout and the document are
 * byte-identical across thread counts.
 *
 * The destructor prints the "[parallel]" footer of a full-detail grid
 * on stderr and writes the document.
 */

#ifndef SILC_SIM_GRID_HH
#define SILC_SIM_GRID_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sample/sampling.hh"
#include "sim/parallel.hh"

namespace silc {
namespace sim {

class Grid
{
  public:
    /** A submitted run; get() blocks for (or, sampled, runs) it. */
    using Cell = ParallelRunner::Job;

    /** What a table shows per cell, and so which mean its last row is. */
    enum class Metric
    {
        Speedup, ///< over the workload's no-NM baseline; geomean row
        NmShare, ///< NM share of demand bytes (Figure 8); average row
    };

    /**
     * Parse the command line and set up the runner.
     * @param unsampled names what the bench prints that sampling does
     *        not estimate; when given, --sample is fatal and says so.
     */
    Grid(int argc, char **argv, const char *unsampled = nullptr);

    /** Prints the footer and writes the document; see the file comment. */
    ~Grid();

    Grid(const Grid &) = delete;
    Grid &operator=(const Grid &) = delete;

    /** Scale of every run; build submitted configs from these. */
    const ExperimentOptions &options() const { return opts_; }

    /** Submit one run. */
    Cell submit(SystemConfig cfg);

    /** Submit makeConfig(workload, scheme); the baseline scheme is
     *  routed through baseline(). */
    Cell submit(const std::string &workload, const std::string &scheme);

    /** The no-NM baseline run of @p workload, submitted once. */
    Cell baseline(const std::string &workload);

    /** Speedup of @p r over its workload's baseline. */
    double speedup(const SimResult &r);

    /**
     * Print a rows x columns table of @p metric over @p cells
     * (cells[row][column]): header, one row per workload as it
     * completes, a rule and the mean row.  @return the mean row.
     */
    std::vector<double> table(const std::vector<std::string> &rows,
                              const std::vector<std::string> &columns,
                              const std::vector<std::vector<Cell>> &cells,
                              Metric metric);

  private:
    ExperimentOptions opts_;
    std::string json_path_;
    /** Engaged in full detail; under --sample, sampling_ is read. */
    std::optional<ParallelRunner> runner_;
    sample::SamplingConfig sampling_;
    std::map<std::string, Cell> baselines_;
    /** Every submitted cell, in submission order, for the document. */
    std::vector<Cell> cells_;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_GRID_HH
