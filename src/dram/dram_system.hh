/**
 * @file
 * A complete DRAM device: address decode across channels/ranks/banks/rows,
 * per-channel controllers, and traffic/energy accounting.  The simulator
 * instantiates two of these — NM (HBM2) and FM (DDR3) — and the
 * flat-memory policies issue DramRequests into them.
 */

#ifndef SILC_DRAM_DRAM_SYSTEM_HH
#define SILC_DRAM_DRAM_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/controller.hh"
#include "dram/energy.hh"
#include "dram/request.hh"
#include "dram/timing.hh"

namespace silc {

namespace telemetry {
class Sampler;
} // namespace telemetry

namespace dram {

/** Where a device-local address lands in the DRAM geometry. */
struct AddressDecode
{
    uint32_t channel = 0;
    uint32_t bank = 0;     ///< flat bank index within the channel
    int64_t row = 0;
    uint32_t column = 0;   ///< 64B column within the row
};

/** Aggregate byte counters indexed by TrafficClass. */
struct TrafficBytes
{
    std::array<uint64_t, 4> read{};
    std::array<uint64_t, 4> write{};

    uint64_t
    totalRead() const
    {
        uint64_t s = 0;
        for (auto v : read)
            s += v;
        return s;
    }

    uint64_t
    totalWrite() const
    {
        uint64_t s = 0;
        for (auto v : write)
            s += v;
        return s;
    }

    uint64_t total() const { return totalRead() + totalWrite(); }
};

/** One DRAM device (NM or FM). */
class DramSystem
{
  public:
    /**
     * @param params   device timing/geometry
     * @param capacity device capacity in bytes (requests must be in range)
     * @param events   shared event queue for completion callbacks
     */
    DramSystem(DramTimingParams params, uint64_t capacity,
               EventQueue &events);

    /**
     * Map a device-local address onto the geometry.  Consecutive 64B
     * subblocks interleave across channels; columns, banks, ranks and
     * rows follow (open-page friendly for 2KB block trains).
     */
    AddressDecode decode(Addr addr) const;

    /** Issue a request at tick @p now. */
    void issue(DramRequest req, Tick now);

    /**
     * Advance to CPU tick @p now.  Event-driven: channels arm a wakeup
     * register with their next actionable tick (see ChannelController),
     * so this is one comparison against the device-wide minimum unless
     * some channel's wakeup is due.  Due channels are scanned here, in
     * the same loop phase the polled design used, so issued-command
     * order is unchanged.
     *
     * Inline fast path: called every CPU cycle from the main loop.
     */
    void
    tick(Tick now)
    {
        tick_seen_ = now;
        if (now < next_scan_min_)
            return;
        scanDue(now);
    }

    /** True when all channel queues are empty. */
    bool idle() const;

    /**
     * Earliest tick at which any channel could act (kTickNever when no
     * work or deadline is pending).  Ticks strictly before this are
     * no-ops, so the main loop may fast-forward across them.
     */
    Tick nextWakeTick() const { return next_scan_min_; }

    const DramTimingParams &params() const { return params_; }
    uint64_t capacity() const { return capacity_; }
    const std::string &name() const { return params_.name; }

    /** Byte counters per traffic class. */
    const TrafficBytes &traffic() const { return traffic_; }

    /** Demand-only bytes (the paper's Figure 8 numerator). */
    uint64_t
    demandBytes() const
    {
        const auto d = static_cast<size_t>(TrafficClass::Demand);
        return traffic_.read[d] + traffic_.write[d];
    }

    uint64_t rowHits() const;
    uint64_t rowMisses() const;
    uint64_t activations() const;
    uint64_t refreshes() const;
    uint64_t readsServed() const;
    uint64_t writesServed() const;

    /** Background reads promoted past demand traffic by the aging bound. */
    uint64_t bgPromotions() const;

    /** Mean read queueing delay in CPU ticks. */
    double avgReadQueueDelay() const;

    /** Fraction of tick-time the data buses were transferring. */
    double busUtilization(Tick elapsed) const;

    /** Total energy (dynamic + background) in joules. */
    double energyJoules(Tick elapsed, double cpu_freq_hz) const;

    /** Dynamic-only energy in joules. */
    double dynamicEnergyJoules() const;

    /** Queue depth across channels (diagnostics / backpressure hints). */
    size_t queuedRequests() const;

    /** Histogram of read queueing delays (CPU ticks), device-wide. */
    const stats::Distribution &readDelayHistogram() const
    {
        return read_delay_hist_;
    }

    /**
     * Register per-epoch probes under @p prefix ("nm", "fm"): device
     * bytes/demand-bytes per epoch, read-delay percentiles, plus
     * per-channel read/write queue depth, row-hit rate and bus
     * utilization.  The device must outlive @p sampler.
     */
    void registerTelemetry(telemetry::Sampler &sampler,
                           const std::string &prefix) const;

    /** Per-channel access for tests (wakeup-oracle introspection). */
    const ChannelController &channel(size_t i) const
    {
        return *channels_[i];
    }

  private:
    /** Slow path of tick(): scan every due channel in index order. */
    void scanDue(Tick now);

    DramTimingParams params_;
    uint64_t capacity_;
    stats::Distribution read_delay_hist_;
    std::vector<std::unique_ptr<ChannelController>> channels_;
    TrafficBytes traffic_;
    uint64_t issued_requests_ = 0;
    /** Minimum of the channels' wakeup registers (may run stale-early:
     *  scanDue() recomputes it; a too-low value only costs a no-op pass). */
    Tick next_scan_min_ = kTickNever;
    /** Last tick() cycle, to place same-cycle enqueues (see issue()). */
    Tick tick_seen_ = kTickNever;
};

} // namespace dram
} // namespace silc

#endif // SILC_DRAM_DRAM_SYSTEM_HH
