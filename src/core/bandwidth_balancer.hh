/**
 * @file
 * Bypassing / bandwidth balancing (SILC-FM Section III-E).
 *
 * With an NM:FM bandwidth ratio of N:1, servicing everything from NM
 * leaves FM's bandwidth idle; the optimum steers ~1/(N+1) of demand to
 * FM.  The balancer tracks the access rate over a sliding window and
 * raises the bypass flag whenever the rate exceeds the target (0.8 for
 * the paper's 4:1 system); while bypassing, no new subblocks are swapped
 * into NM, so FM keeps servicing its share.
 */

#ifndef SILC_CORE_BANDWIDTH_BALANCER_HH
#define SILC_CORE_BANDWIDTH_BALANCER_HH

#include <cstdint>

#include "common/serialize.hh"

namespace silc {
namespace core {

/** The access-rate-driven bypass controller. */
class BandwidthBalancer
{
  public:
    /**
     * @param enabled     feature flag (the Fig. 6 ablation disables it)
     * @param target_rate access rate above which bypassing engages
     * @param window      demand accesses per measurement window
     */
    BandwidthBalancer(bool enabled, double target_rate, uint64_t window);

    /**
     * Record one demand access and update the bypass decision at window
     * boundaries.
     *
     * @param serviced_from_nm where the critical data came from
     */
    void record(bool serviced_from_nm);

    /** True while new swap-ins are suppressed. */
    bool bypassing() const { return bypassing_; }

    /** Access rate measured over the last complete window. */
    double lastWindowRate() const { return last_rate_; }

    uint64_t windowsElapsed() const { return windows_; }

    /** Checkpoint the window state (ctor params excluded). */
    void
    checkpoint(Blob &b)
    {
        b.u64(in_window_);
        b.u64(nm_in_window_);
        b.flag(bypassing_);
        b.f64(last_rate_);
        b.u64(windows_);
    }

  private:
    bool enabled_;
    double target_rate_;
    uint64_t window_;

    uint64_t in_window_ = 0;
    uint64_t nm_in_window_ = 0;
    bool bypassing_ = false;
    double last_rate_ = 0.0;
    uint64_t windows_ = 0;
};

} // namespace core
} // namespace silc

#endif // SILC_CORE_BANDWIDTH_BALANCER_HH
