/**
 * @file
 * Memory activity monitoring (SILC-FM Section III-B): saturating 6-bit
 * aging counters classify coexisting NM-native and swapped-in FM blocks
 * as hot or cold.  Counters shift right every `aging_interval` memory
 * accesses so stale hotness decays; a block whose counter crosses the
 * threshold becomes a locking candidate.
 */

#ifndef SILC_CORE_ACTIVITY_MONITOR_HH
#define SILC_CORE_ACTIVITY_MONITOR_HH

#include <cstdint>

#include "common/serialize.hh"

namespace silc {
namespace core {

/** Saturating counter arithmetic for a fixed bit width. */
class AgingCounterOps
{
  public:
    /** @param bits counter width (paper: 6). */
    explicit AgingCounterOps(uint32_t bits);

    /** Increment @p value, saturating at the width's maximum. */
    uint8_t increment(uint8_t value) const;

    /** One aging step (right shift). */
    static uint8_t age(uint8_t value) { return value >> 1; }

    uint8_t max() const { return max_; }

  private:
    uint8_t max_;
};

/**
 * Tracks total accesses and tells the owner when an aging sweep is due.
 */
class AgingSchedule
{
  public:
    /** @param interval memory accesses between sweeps (paper: 1M). */
    explicit AgingSchedule(uint64_t interval);

    /**
     * Record one access.
     * @retval true when an aging sweep should run now.
     */
    bool onAccess();

    uint64_t accesses() const { return accesses_; }
    uint64_t sweeps() const { return sweeps_; }

    /** Checkpoint the access/sweep counters. */
    void
    checkpoint(Blob &b)
    {
        b.u64(accesses_);
        b.u64(sweeps_);
    }

  private:
    uint64_t interval_;
    uint64_t accesses_ = 0;
    uint64_t sweeps_ = 0;
};

} // namespace core
} // namespace silc

#endif // SILC_CORE_ACTIVITY_MONITOR_HH
