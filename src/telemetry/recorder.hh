/**
 * @file
 * Per-run telemetry: the probe registry, its epoch schedule on the
 * simulation's EventQueue, and the recorded TimeSeries, which
 * sim::SimResult embeds (the results JSON exports it;
 * sim/result_writer.hh).
 *
 * Components register probes — named read functions over their live
 * counters — once at attach time; every epoch the Recorder reads all of
 * them and derives the per-epoch view:
 *
 *   Gauge    raw value at sample time            (queue depth, occupancy)
 *   Counter  delta since the previous sample     (swaps, bytes, retires)
 *   Rate     delta / elapsed ticks               (IPC, bus utilization)
 *   Ratio    delta(num) / delta(den)             (hit rates, Equation 1)
 *
 * Counter-style derivations make monotonic whole-run counters — which is
 * what every component in this codebase already keeps — directly usable
 * as phase-resolved series without the components tracking epochs
 * themselves.  A stats::Distribution registers as p50/p95/p99 percentile
 * gauges rather than raw buckets.
 *
 * Lifecycle: construct → register probes → start(events) → (epochs fire
 * inside the run loop) → finish(tick).
 *
 * Cost model: a run with telemetry off (SystemConfig::
 * telemetry_epoch_ticks 0) builds no Recorder at all — no epoch events
 * are ever scheduled, so the simulator's hot paths are untouched.
 * Thread-cleanliness: a Recorder belongs to exactly one sim::System,
 * which belongs to exactly one worker thread; there is no shared mutable
 * state between runs.
 */

#ifndef SILC_TELEMETRY_RECORDER_HH
#define SILC_TELEMETRY_RECORDER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "telemetry/series.hh"

namespace silc {
namespace telemetry {

class Recorder
{
  public:
    /** Reads one probe value; must stay valid for the Recorder's life. */
    using ReadFn = std::function<double()>;

    /**
     * @param epoch_ticks ticks between samples (must be > 0).
     * @param run_id series identity, e.g. "mcf/silcfm".
     */
    Recorder(Tick epoch_ticks, std::string run_id);

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    // ---- Probe registration, before start(). ----

    /** Raw value at sample time. */
    void addGauge(std::string name, ReadFn read);

    /** Per-epoch delta of a monotonic counter. */
    void addCounter(std::string name, ReadFn read);

    /** Per-epoch delta divided by the ticks the epoch covered. */
    void addRate(std::string name, ReadFn read);

    /**
     * delta(@p num) / delta(@p den) within the epoch; 0 when the
     * denominator did not move.
     */
    void addRatio(std::string name, ReadFn num, ReadFn den);

    /**
     * Register @p dist as three percentile gauges (<name>.p50/.p95/.p99,
     * cumulative over the run so far).  The series thus carries
     * percentiles, never bucket arrays.  @p dist must outlive the
     * Recorder.
     */
    void addDistribution(const std::string &name,
                         const stats::Distribution &dist);

    /**
     * Schedule the first epoch on @p events (which must outlive the
     * Recorder or never fire the scheduled event).
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
    enum class Kind { Gauge, Counter, Rate, Ratio };

    struct Probe
    {
        Kind kind;
        ReadFn read;
        ReadFn read_den;    ///< Ratio only
        double last = 0.0;
        double last_den = 0.0;
    };

    void add(std::string name, Kind kind, ReadFn read,
             ReadFn read_den = nullptr);

    /** Tick of the previous sample (0 before the first). */
    Tick
    lastSampleTick() const
    {
        return series_->epochs.empty() ? 0 : series_->epochs.back().tick;
    }

    void onEpoch(Tick now);

    /**
     * Snapshot every probe at tick @p now, deriving deltas/rates against
     * the previous sample, and append the epoch to the series.
     */
    void record(Tick now);

    /** Parallel to the series header's probe names. */
    std::vector<Probe> probes_;
    std::shared_ptr<TimeSeries> series_;
    EventQueue *events_ = nullptr;
    bool started_ = false;
    bool finished_ = false;
};

} // namespace telemetry
} // namespace silc

#endif // SILC_TELEMETRY_RECORDER_HH
