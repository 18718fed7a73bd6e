#include "dram/energy.hh"

namespace silc {
namespace dram {

double
EnergyMeter::dynamicJoules(const DramTimingParams &p) const
{
    const double act_j =
        static_cast<double>(activations_) * p.energy.act_pre_pj * 1e-12;
    const double bits =
        static_cast<double>(read_bytes_ + write_bytes_) * 8.0;
    const double xfer_j = bits * p.energy.pj_per_bit * 1e-12;
    return act_j + xfer_j;
}

double
EnergyMeter::totalJoules(const DramTimingParams &p, Tick elapsed_ticks,
                         double cpu_freq_hz) const
{
    const double seconds =
        static_cast<double>(elapsed_ticks) / cpu_freq_hz;
    const double background_j = p.energy.background_mw_per_channel * 1e-3 *
        static_cast<double>(p.channels) * seconds;
    return dynamicJoules(p) + background_j;
}

} // namespace dram
} // namespace silc
