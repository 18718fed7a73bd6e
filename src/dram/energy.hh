/**
 * @file
 * DRAM energy accounting used for the paper's Energy-Delay Product claim
 * (SILC-FM reports 13% EDP savings over CAMEO thanks to die-stacked DRAM's
 * low per-bit energy).
 */

#ifndef SILC_DRAM_ENERGY_HH
#define SILC_DRAM_ENERGY_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/timing.hh"

namespace silc {
namespace dram {

/** Accumulates activation and data-movement counts; converts to joules. */
class EnergyMeter
{
  public:
    /** Bulk-add @p n activations (for aggregate replay). */
    void recordActivations(uint64_t n) { activations_ += n; }

    void
    recordTransfer(uint64_t bytes, bool is_write)
    {
        if (is_write)
            write_bytes_ += bytes;
        else
            read_bytes_ += bytes;
    }

    uint64_t activations() const { return activations_; }

    /**
     * Total energy in joules after @p elapsed_ticks of simulation.
     *
     * @param p            device parameters (energy + channels)
     * @param elapsed_ticks simulated CPU ticks
     * @param cpu_freq_hz  CPU frequency to convert ticks into seconds
     */
    double totalJoules(const DramTimingParams &p, Tick elapsed_ticks,
                       double cpu_freq_hz) const;

    /** Dynamic-only energy in joules (no background power). */
    double dynamicJoules(const DramTimingParams &p) const;

  private:
    uint64_t activations_ = 0;
    uint64_t read_bytes_ = 0;
    uint64_t write_bytes_ = 0;
};

} // namespace dram
} // namespace silc

#endif // SILC_DRAM_ENERGY_HH
