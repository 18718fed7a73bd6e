#include "telemetry/recorder.hh"

#include "common/logging.hh"

namespace silc {
namespace telemetry {

Recorder::Recorder(const TelemetryConfig &cfg, std::string run_id)
    : cfg_(cfg), sampler_(cfg.epoch_ticks),
      series_(std::make_shared<TimeSeries>())
{
    series_->header.run_id = std::move(run_id);
    series_->header.epoch_ticks = cfg_.epoch_ticks;
}

void
Recorder::start(EventQueue &events)
{
    silc_assert(!started_);
    started_ = true;
    events_ = &events;
    series_->header.probes = sampler_.names();
    events_->schedule(cfg_.epoch_ticks, [this](Tick t) { onEpoch(t); });
}

void
Recorder::record(Tick now)
{
    series_->epochs.push_back(sampler_.sample(now));
}

void
Recorder::onEpoch(Tick now)
{
    if (finished_)
        return;
    record(now);
    events_->schedule(now + cfg_.epoch_ticks,
                      [this](Tick t) { onEpoch(t); });
}

void
Recorder::finish(Tick final_tick)
{
    if (!started_ || finished_)
        return;
    finished_ = true;
    // The run usually ends between epoch boundaries; capture the tail
    // so short runs still produce at least one epoch.
    if (final_tick > sampler_.lastSampleTick())
        record(final_tick);
}

} // namespace telemetry
} // namespace silc
