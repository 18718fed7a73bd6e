#include "dram/dram_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/sampler.hh"

namespace silc {
namespace dram {

DramSystem::DramSystem(DramTimingParams params, uint64_t capacity,
                       EventQueue &events)
    : params_(std::move(params)), capacity_(capacity),
      // Queue delays at this scale live in the tens-to-hundreds of CPU
      // ticks; 8-tick buckets up to 1024 resolve p50-p99, with the
      // saturating overflow bucket catching drain-mode outliers.
      read_delay_hist_(0.0, 1024.0, 128)
{
    params_.validate();
    if (capacity_ == 0 || capacity_ % kLargeBlockSize != 0)
        fatal("%s: capacity must be a positive multiple of the large "
              "block size", params_.name.c_str());
    channels_.reserve(params_.channels);
    for (uint32_t c = 0; c < params_.channels; ++c)
        channels_.push_back(std::make_unique<ChannelController>(
            params_, events, &read_delay_hist_));
    for (const auto &ch : channels_)
        next_scan_min_ = std::min(next_scan_min_, ch->nextScanAt());
}

AddressDecode
DramSystem::decode(Addr addr) const
{
    AddressDecode d;
    uint64_t block = addr >> kSubblockBits;
    d.channel = static_cast<uint32_t>(block % params_.channels);
    block /= params_.channels;

    const uint64_t cols = params_.row_buffer_bytes / kSubblockSize;
    d.column = static_cast<uint32_t>(block % cols);
    block /= cols;

    const uint64_t banks =
        params_.banks_per_rank * params_.ranks_per_channel;
    d.bank = static_cast<uint32_t>(block % banks);
    block /= banks;

    d.row = static_cast<int64_t>(block);
    return d;
}

void
DramSystem::issue(DramRequest req, Tick now)
{
    if (req.addr >= capacity_)
        panic("%s: address %llu out of range (capacity %llu)",
              params_.name.c_str(),
              static_cast<unsigned long long>(req.addr),
              static_cast<unsigned long long>(capacity_));

    AddressDecode d = decode(req.addr);
    if (req.force_channel >= 0) {
        if (static_cast<uint32_t>(req.force_channel) >= params_.channels)
            panic("%s: forced channel %d out of range",
                  params_.name.c_str(), req.force_channel);
        d.channel = static_cast<uint32_t>(req.force_channel);
    }

    const auto cls = static_cast<size_t>(req.traffic);
    if (req.is_write)
        traffic_.write[cls] += req.bytes;
    else
        traffic_.read[cls] += req.bytes;
    ++issued_requests_;

    DecodedRequest dec;
    dec.bank = d.bank;
    dec.row = d.row;
    dec.req = std::move(req);
    ChannelController &ch = *channels_[d.channel];

    // Compute when the channel must be scanned: exactly when the polled
    // design would have scanned it — the current cycle's DRAM phase if
    // that is still ahead of us (cores tick before memory in the main
    // loop), else the next memory-cycle boundary.
    const Tick step = params_.cpu_cycles_per_mem_cycle;
    const Tick rem = now % step;
    Tick scan_at;
    if (rem == 0)
        scan_at = tick_seen_ != now ? now : now + step;
    else
        scan_at = now + (step - rem);

    ch.enqueue(std::move(dec), now);
    ch.requestScanAt(scan_at);
    next_scan_min_ = std::min(next_scan_min_, scan_at);
}

void
DramSystem::scanDue(Tick now)
{
    // Ascending channel order, matching the old polled loop, so
    // completion events keep their insertion-order tie-breaking.
    Tick m = kTickNever;
    for (auto &ch : channels_) {
        if (now >= ch->nextScanAt())
            ch->scan(now);
        m = std::min(m, ch->nextScanAt());
    }
    next_scan_min_ = m;
}

bool
DramSystem::idle() const
{
    for (const auto &ch : channels_) {
        if (ch->queuedRequests() != 0)
            return false;
    }
    return true;
}

uint64_t
DramSystem::rowHits() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->rowHits();
    return s;
}

uint64_t
DramSystem::rowMisses() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->rowMisses();
    return s;
}

uint64_t
DramSystem::activations() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->activations();
    return s;
}

uint64_t
DramSystem::refreshes() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->refreshes();
    return s;
}

uint64_t
DramSystem::bgPromotions() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->bgPromotions();
    return s;
}

uint64_t
DramSystem::readsServed() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->readsServed();
    return s;
}

uint64_t
DramSystem::writesServed() const
{
    uint64_t s = 0;
    for (const auto &ch : channels_)
        s += ch->writesServed();
    return s;
}

double
DramSystem::avgReadQueueDelay() const
{
    double sum = 0.0;
    uint64_t n = 0;
    for (const auto &ch : channels_) {
        sum += ch->readQueueDelaySum();
        n += ch->readsServed();
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double
DramSystem::busUtilization(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    Tick busy = 0;
    for (const auto &ch : channels_)
        busy += ch->busBusyTicks();
    return static_cast<double>(busy) /
        (static_cast<double>(elapsed) * params_.channels);
}

double
DramSystem::energyJoules(Tick elapsed, double cpu_freq_hz) const
{
    const double seconds = static_cast<double>(elapsed) / cpu_freq_hz;
    const double bg_j = params_.energy.background_mw_per_channel * 1e-3 *
        static_cast<double>(params_.channels) * seconds;
    return dynamicEnergyJoules() + bg_j;
}

double
DramSystem::dynamicEnergyJoules() const
{
    EnergyMeter m;
    // The meter is counter-based; replay aggregates rather than events.
    m.recordActivations(activations());
    m.recordTransfer(traffic_.totalRead(), false);
    m.recordTransfer(traffic_.totalWrite(), true);
    return m.dynamicJoules(params_);
}

size_t
DramSystem::queuedRequests() const
{
    size_t s = 0;
    for (const auto &ch : channels_)
        s += ch->queuedRequests();
    return s;
}

void
DramSystem::registerTelemetry(telemetry::Sampler &sampler,
                              const std::string &prefix) const
{
    sampler.addCounter(prefix + ".bytes",
                       [this] { return double(traffic_.total()); });
    sampler.addCounter(prefix + ".demandBytes",
                       [this] { return double(demandBytes()); });
    sampler.addRatio(prefix + ".rowHitRate",
                     [this] { return double(rowHits()); },
                     [this] { return double(rowHits() + rowMisses()); });
    sampler.addDistribution(prefix + ".readDelay", read_delay_hist_);

    for (size_t c = 0; c < channels_.size(); ++c) {
        const ChannelController *ch = channels_[c].get();
        const std::string p =
            prefix + ".ch" + std::to_string(c);
        sampler.addGauge(p + ".readQ",
                         [ch] { return double(ch->readQueueDepth()); });
        sampler.addGauge(p + ".writeQ",
                         [ch] { return double(ch->writeQueueDepth()); });
        sampler.addRatio(p + ".rowHitRate",
                         [ch] { return double(ch->rowHits()); },
                         [ch] {
                             return double(ch->rowHits() +
                                           ch->rowMisses());
                         });
        // Per-channel data-bus duty cycle within the epoch.
        sampler.addRate(p + ".busUtil",
                        [ch] { return double(ch->busBusyTicks()); });
    }
}

} // namespace dram
} // namespace silc
