/**
 * @file
 * Result record of one simulation run plus the aggregate math the bench
 * harness uses (geometric means, speedups, EDP).
 */

#ifndef SILC_SIM_METRICS_HH
#define SILC_SIM_METRICS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace silc {

namespace telemetry {
struct TimeSeries;
} // namespace telemetry

namespace sample {
struct SamplingReport;
} // namespace sample

namespace sim {

/** Everything a bench needs from one run. */
struct SimResult
{
    std::string scheme;
    std::string workload;
    uint32_t cores = 0;
    uint64_t instructions = 0;

    /** Execution time: tick when the last core finished. */
    Tick ticks = 0;
    /** Run was cut off by the safety tick limit. */
    bool hit_tick_limit = false;

    double ipc = 0.0;
    uint64_t llc_misses = 0;
    double mpki = 0.0;
    /** Unique 2KB pages touched (the measured footprint). */
    uint64_t footprint_pages = 0;

    /** NM-serviced fraction of demand requests (Equation 1). */
    double access_rate = 0.0;
    /** Mean LLC miss latency in ticks. */
    double avg_miss_latency = 0.0;

    uint64_t nm_demand_bytes = 0;
    uint64_t fm_demand_bytes = 0;
    uint64_t nm_total_bytes = 0;
    uint64_t fm_total_bytes = 0;
    uint64_t migration_bytes = 0;
    uint64_t metadata_bytes = 0;

    double nm_row_hit_rate = 0.0;
    double fm_row_hit_rate = 0.0;
    double nm_bus_utilization = 0.0;
    double fm_bus_utilization = 0.0;
    double nm_avg_read_queue_ticks = 0.0;
    double fm_avg_read_queue_ticks = 0.0;

    double energy_nm_j = 0.0;
    double energy_fm_j = 0.0;
    double energy_total_j = 0.0;
    /** Energy-delay product in joule-seconds. */
    double edp = 0.0;

    /**
     * Epoch time series recorded during the run; null when
     * SystemConfig::telemetry_epoch_ticks is 0.  Shared and immutable,
     * so SimResult stays cheap to copy through the parallel harness.
     */
    std::shared_ptr<const telemetry::TimeSeries> telemetry;

    /**
     * Per-metric means and 95% confidence intervals of a sampled run
     * (src/sample/); null for full detailed runs.  Shared and immutable
     * for the same reason as the telemetry series.
     */
    std::shared_ptr<const sample::SamplingReport> sampling;

    /** Demand-bandwidth share serviced by NM (Figure 8). */
    double nmDemandFraction() const;

    /** Seconds of simulated time at @p cpu_freq_hz. */
    double seconds(double cpu_freq_hz = 3.2e9) const;
};

/** Geometric mean; empty input yields 0. */
double geomean(const std::vector<double> &values);

} // namespace sim
} // namespace silc

#endif // SILC_SIM_METRICS_HH
