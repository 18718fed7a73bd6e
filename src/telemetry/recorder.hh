/**
 * @file
 * The per-run telemetry facade: one Recorder owns one Sampler, drives
 * it from the simulation's EventQueue at a fixed epoch cadence, and
 * keeps the complete TimeSeries in memory for embedding into
 * sim::SimResult (the results JSON exports it; sim/result_writer.hh).
 *
 * Lifecycle: construct → register probes via sampler() →
 * start(events) → (epochs fire inside the run loop) → finish(tick).
 *
 * Cost model: with telemetry disabled no Recorder exists at all — no
 * epoch events are ever scheduled, so the simulator's hot paths are
 * untouched.  Thread-cleanliness: a Recorder belongs to exactly one
 * sim::System, which belongs to exactly one worker thread; there is no
 * shared mutable state between runs.
 */

#ifndef SILC_TELEMETRY_RECORDER_HH
#define SILC_TELEMETRY_RECORDER_HH

#include <memory>
#include <string>

#include "common/event_queue.hh"
#include "common/types.hh"
#include "telemetry/sampler.hh"
#include "telemetry/series.hh"

namespace silc {
namespace telemetry {

/** Per-run telemetry knobs (lives inside sim::SystemConfig). */
struct TelemetryConfig
{
    /** Master switch; off schedules nothing and allocates nothing. */
    bool enabled = false;
    /** Ticks per epoch (SILC_EPOCH_TICKS). */
    Tick epoch_ticks = 100'000;
};

class Recorder
{
  public:
    /** @param run_id series identity, e.g. "mcf/silcfm". */
    Recorder(const TelemetryConfig &cfg, std::string run_id);

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Register probes here before start(). */
    Sampler &sampler() { return sampler_; }

    /**
     * Freeze the probe list into the series header and schedule the
     * first epoch on @p events (which must outlive the Recorder or
     * never fire the scheduled event).
     */
    void start(EventQueue &events);

    /**
     * Take a final partial sample if the run advanced past the last
     * epoch boundary.  Idempotent.
     */
    void finish(Tick final_tick);

    /** The recorded series; fully populated once finish() ran. */
    std::shared_ptr<const TimeSeries> series() const { return series_; }

  private:
    void onEpoch(Tick now);
    void record(Tick now);

    TelemetryConfig cfg_;
    Sampler sampler_;
    std::shared_ptr<TimeSeries> series_;
    EventQueue *events_ = nullptr;
    bool started_ = false;
    bool finished_ = false;
};

} // namespace telemetry
} // namespace silc

#endif // SILC_TELEMETRY_RECORDER_HH
