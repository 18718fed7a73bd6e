#include "telemetry/recorder.hh"

#include "common/logging.hh"

namespace silc {
namespace telemetry {

Recorder::Recorder(Tick epoch_ticks, std::string run_id)
    : series_(std::make_shared<TimeSeries>())
{
    silc_assert(epoch_ticks > 0);
    series_->header.run_id = std::move(run_id);
    series_->header.epoch_ticks = epoch_ticks;
}

void
Recorder::add(std::string name, Kind kind, ReadFn read, ReadFn read_den)
{
    silc_assert(!started_);
    silc_assert(read != nullptr);
    std::vector<std::string> &names = series_->header.probes;
    for (const auto &n : names) {
        if (n == name)
            panic("telemetry: duplicate probe '%s'", name.c_str());
    }
    names.push_back(std::move(name));
    Probe p;
    p.kind = kind;
    p.read = std::move(read);
    p.read_den = std::move(read_den);
    probes_.push_back(std::move(p));
}

void
Recorder::addGauge(std::string name, ReadFn read)
{
    add(std::move(name), Kind::Gauge, std::move(read));
}

void
Recorder::addCounter(std::string name, ReadFn read)
{
    add(std::move(name), Kind::Counter, std::move(read));
}

void
Recorder::addRate(std::string name, ReadFn read)
{
    add(std::move(name), Kind::Rate, std::move(read));
}

void
Recorder::addRatio(std::string name, ReadFn num, ReadFn den)
{
    silc_assert(den != nullptr);
    add(std::move(name), Kind::Ratio, std::move(num), std::move(den));
}

void
Recorder::addDistribution(const std::string &name,
                          const stats::Distribution &dist)
{
    const stats::Distribution *d = &dist;
    addGauge(name + ".p50", [d] { return d->percentile(0.50); });
    addGauge(name + ".p95", [d] { return d->percentile(0.95); });
    addGauge(name + ".p99", [d] { return d->percentile(0.99); });
}

void
Recorder::start(EventQueue &events)
{
    silc_assert(!started_);
    started_ = true;
    events_ = &events;
    events_->schedule(series_->header.epoch_ticks,
                      [this](Tick t) { onEpoch(t); });
}

void
Recorder::record(Tick now)
{
    const Tick last_tick = lastSampleTick();
    EpochRecord rec;
    rec.index = series_->epochs.size();
    rec.tick = now;
    rec.elapsed = now >= last_tick ? now - last_tick : 0;
    rec.values.reserve(probes_.size());

    for (Probe &p : probes_) {
        const double v = p.read();
        double out = 0.0;
        switch (p.kind) {
          case Kind::Gauge:
            out = v;
            break;
          case Kind::Counter:
            out = v - p.last;
            break;
          case Kind::Rate:
            out = rec.elapsed == 0
                ? 0.0
                : (v - p.last) / static_cast<double>(rec.elapsed);
            break;
          case Kind::Ratio: {
            const double den = p.read_den();
            const double dd = den - p.last_den;
            out = dd == 0.0 ? 0.0 : (v - p.last) / dd;
            p.last_den = den;
            break;
          }
        }
        p.last = v;
        rec.values.push_back(out);
    }
    series_->epochs.push_back(std::move(rec));
}

void
Recorder::onEpoch(Tick now)
{
    if (finished_)
        return;
    record(now);
    events_->schedule(now + series_->header.epoch_ticks,
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
    if (final_tick > lastSampleTick())
        record(final_tick);
}

} // namespace telemetry
} // namespace silc
