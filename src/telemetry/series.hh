/**
 * @file
 * The in-memory representation of an epoch time series: a header naming
 * the run, the epoch cadence and the probes, plus one record per epoch.
 *
 * Everything the telemetry subsystem produces — the series embedded
 * into sim::SimResult and its JSON export — is derived from these two
 * plain structs, so they are the schema of record.
 */

#ifndef SILC_TELEMETRY_SERIES_HH
#define SILC_TELEMETRY_SERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace silc {
namespace telemetry {

/** Identity and shape of one recorded time series. */
struct SeriesHeader
{
    /** Human-readable run identity ("mcf/silcfm"). */
    std::string run_id;
    /** Nominal ticks between samples (the last epoch may be shorter). */
    Tick epoch_ticks = 0;
    /** Probe names, in registration order; parallel to record values. */
    std::vector<std::string> probes;
};

/** One sampled epoch. */
struct EpochRecord
{
    /** Zero-based epoch index. */
    uint64_t index = 0;
    /** Tick at which the sample was taken (end of the epoch). */
    Tick tick = 0;
    /** Ticks actually covered by this epoch (rate denominators). */
    Tick elapsed = 0;
    /** One value per probe, in header order. */
    std::vector<double> values;
};

/** A complete recorded run. */
struct TimeSeries
{
    SeriesHeader header;
    std::vector<EpochRecord> epochs;

    /** Column index of @p probe, or -1 when absent. */
    int
    probeIndex(const std::string &probe) const
    {
        for (size_t i = 0; i < header.probes.size(); ++i) {
            if (header.probes[i] == probe)
                return static_cast<int>(i);
        }
        return -1;
    }
};

} // namespace telemetry
} // namespace silc

#endif // SILC_TELEMETRY_SERIES_HH
