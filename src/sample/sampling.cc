#include "sample/sampling.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/silc_fm.hh"
#include "dram/dram_system.hh"
#include "policy/registry.hh"
#include "sim/parallel.hh"

namespace silc {
namespace sample {

namespace {

/** The metrics a window sample exposes to aggregation, ipc first. */
struct MetricDef
{
    const char *name;
    double WindowSample::*field;
};

constexpr MetricDef kMetricDefs[] = {
    {"ipc", &WindowSample::ipc},
    {"mpki", &WindowSample::mpki},
    {"avg_miss_latency", &WindowSample::avg_miss_latency},
    {"access_rate", &WindowSample::access_rate},
    {"swaps_per_kilo", &WindowSample::swaps_per_kilo},
    {"bypass_per_kilo", &WindowSample::bypass_per_kilo},
    {"fm_read_p50", &WindowSample::fm_read_p50},
    {"fm_read_p95", &WindowSample::fm_read_p95},
    {"nm_read_p95", &WindowSample::nm_read_p95},
    {"nm_demand_fraction", &WindowSample::nm_demand_fraction},
};

MetricEstimate
estimateOf(const std::vector<WindowSample> &samples, const MetricDef &def)
{
    MetricEstimate e;
    e.name = def.name;
    e.n = static_cast<uint32_t>(samples.size());
    if (samples.empty())
        return e;

    double sum = 0.0;
    for (const auto &s : samples)
        sum += s.*def.field;
    e.mean = sum / static_cast<double>(samples.size());

    if (samples.size() < 2)
        return e;
    double ss = 0.0;
    for (const auto &s : samples) {
        const double d = s.*def.field - e.mean;
        ss += d * d;
    }
    const double n = static_cast<double>(samples.size());
    const double var = ss / (n - 1.0);
    e.ci_half = StatsAggregator::tCritical95(
                    static_cast<uint32_t>(samples.size() - 1)) *
        std::sqrt(var / n);
    return e;
}

} // namespace

// ---- SamplingConfig ----------------------------------------------------

SamplingConfig
SamplingConfig::fromEnv()
{
    SamplingConfig c;
    c.period = envPositiveCount("SILC_SAMPLE_PERIOD", c.period);
    c.window = envPositiveCount("SILC_SAMPLE_WINDOW", c.window);
    c.warmup = envPositiveCount("SILC_SAMPLE_WARMUP", c.warmup);
    return c;
}

void
SamplingConfig::validate() const
{
    if (period == 0 || window == 0 || warmup == 0)
        fatal("sampling: period, window and warmup must be positive");
    if (warmup + window > period) {
        fatal("sampling: warmup (%s) + window (%s) must fit within the "
              "period (%s) so measurement windows cannot overlap",
              sim::u64str(warmup).c_str(), sim::u64str(window).c_str(),
              sim::u64str(period).c_str());
    }
}

// ---- SamplingReport ----------------------------------------------------

const MetricEstimate *
SamplingReport::find(const std::string &name) const
{
    for (const auto &m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

// ---- StatsAggregator ---------------------------------------------------

double
StatsAggregator::tCritical95(uint32_t df)
{
    // Two-sided 95% Student's t critical values; beyond df=30 the
    // normal approximation is within 0.3%.
    static const double kTable[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df];
    return 1.96;
}

std::vector<MetricEstimate>
StatsAggregator::estimates() const
{
    std::vector<MetricEstimate> out;
    out.reserve(std::size(kMetricDefs));
    for (const auto &def : kMetricDefs)
        out.push_back(estimateOf(samples_, def));
    return out;
}

// ---- SamplingController ------------------------------------------------

SamplingController::SamplingController(sim::SystemConfig cfg,
                                       SamplingConfig scfg)
    : cfg_(std::move(cfg)), scfg_(scfg),
      width_(scfg.threads != 0 ? scfg.threads
                               : sim::parallelThreadsFromEnv())
{
}

size_t
SamplingController::liveBlobBound() const
{
    return 2 * static_cast<size_t>(width_);
}

void
SamplingController::track(const Checkpoint &ckpt)
{
    const size_t bytes = ckpt.blob.size();
    peak_blobs_ = std::max(peak_blobs_, live_blobs_.fetch_add(1) + 1);
    peak_blob_bytes_ = std::max(peak_blob_bytes_,
                                live_blob_bytes_.fetch_add(bytes) + bytes);
}

void
SamplingController::release(Checkpoint &ckpt)
{
    live_blob_bytes_.fetch_sub(ckpt.blob.size());
    live_blobs_.fetch_sub(1);
    std::vector<uint8_t>().swap(ckpt.blob);
}

WindowSample
SamplingController::replayCheckpoint(Checkpoint ckpt, uint64_t index)
{
    sim::SystemConfig rcfg = cfg_;
    rcfg.telemetry.enabled = false;
    rcfg.check = false;            // the oracle already ran in warming
    // Core retire counters restart at zero after a restore (they are
    // not checkpointed — at a pause point the ROB is empty), so budgets
    // count instructions since the checkpoint.
    rcfg.instructions_per_core = scfg_.warmup;

    sim::System sys(rcfg);
    restore(sys, ckpt);
    release(ckpt);

    // Detailed warmup: re-populates MSHR/DRAM/row-buffer timing state
    // from the checkpoint's architectural state; measurements discard it.
    if (!sys.runToBudget())
        fatal("sampling: detailed warmup hit the tick limit");

    const Tick t0 = sys.currentCycle();
    const sim::MemoryHierarchy &h = sys.hierarchy();
    const uint64_t miss0 = h.llcMisses();
    const double lat0 = h.missLatencySum();
    const uint64_t done0 = h.missesCompleted();
    policy::FlatMemoryPolicy &pol = sys.policyRef();
    const uint64_t nm0 = pol.nmServiced();
    const uint64_t fm0 = pol.fmServiced();
    const auto *silc = dynamic_cast<const core::SilcFmPolicy *>(&pol);
    const uint64_t swaps0 = silc ? silc->subblockSwaps() : 0;
    const uint64_t bypass0 = silc ? silc->bypassedAccesses() : 0;
    const stats::Distribution fm_hist0 = sys.fm().readDelayHistogram();
    const uint64_t fmdb0 = sys.fm().demandBytes();
    const dram::DramSystem *nm = sys.nm();
    std::unique_ptr<stats::Distribution> nm_hist0;
    const uint64_t nmdb0 = nm != nullptr ? nm->demandBytes() : 0;
    if (nm != nullptr) {
        nm_hist0 =
            std::make_unique<stats::Distribution>(nm->readDelayHistogram());
    }

    sys.setPerCoreBudget(scfg_.warmup + scfg_.window);
    if (!sys.runToBudget())
        fatal("sampling: measurement window hit the tick limit");
    const Tick t1 = sys.currentCycle();

    WindowSample s;
    s.index = index;
    s.instructions = scfg_.window * cfg_.cores;
    s.ticks = t1 > t0 ? t1 - t0 : 1;
    s.ipc = static_cast<double>(scfg_.window) /
        static_cast<double>(s.ticks);
    const uint64_t dmiss = h.llcMisses() - miss0;
    s.mpki = 1000.0 * static_cast<double>(dmiss) /
        static_cast<double>(s.instructions);
    const uint64_t ddone = h.missesCompleted() - done0;
    s.avg_miss_latency = ddone == 0
        ? 0.0
        : (h.missLatencySum() - lat0) / static_cast<double>(ddone);
    const uint64_t dnm = pol.nmServiced() - nm0;
    const uint64_t dfm = pol.fmServiced() - fm0;
    s.access_rate = dnm + dfm == 0
        ? 0.0
        : static_cast<double>(dnm) / static_cast<double>(dnm + dfm);
    if (silc != nullptr) {
        s.swaps_per_kilo =
            1000.0 * static_cast<double>(silc->subblockSwaps() - swaps0) /
            static_cast<double>(s.instructions);
        s.bypass_per_kilo = 1000.0 *
            static_cast<double>(silc->bypassedAccesses() - bypass0) /
            static_cast<double>(s.instructions);
    }
    const stats::Distribution fm_delta =
        sys.fm().readDelayHistogram().minus(fm_hist0);
    s.fm_read_p50 = fm_delta.percentile(0.50);
    s.fm_read_p95 = fm_delta.percentile(0.95);
    if (nm != nullptr) {
        const stats::Distribution nm_delta =
            nm->readDelayHistogram().minus(*nm_hist0);
        s.nm_read_p95 = nm_delta.percentile(0.95);
        s.nm_demand_bytes = nm->demandBytes() - nmdb0;
    }
    s.fm_demand_bytes = sys.fm().demandBytes() - fmdb0;
    const uint64_t db = s.nm_demand_bytes + s.fm_demand_bytes;
    s.nm_demand_fraction = db == 0
        ? 0.0
        : static_cast<double>(s.nm_demand_bytes) /
            static_cast<double>(db);
    return s;
}

sim::SimResult
SamplingController::run()
{
    scfg_.validate();
    peak_blobs_ = 0;
    peak_blob_bytes_ = 0;

    sim::SystemConfig wcfg = cfg_;
    wcfg.telemetry.enabled = false;

    const policy::SchemeInfo &scheme =
        policy::SchemeRegistry::instance().resolve(cfg_.scheme);
    if (!scheme.traits.checkpointable) {
        fatal("scheme '%s' does not support checkpointed sampling",
              scheme.name.c_str());
    }
    sim::System warm(wcfg);
    warm.setFunctionalMode(true);

    const uint64_t total = cfg_.instructions_per_core;
    const uint64_t n_ckpt = std::max<uint64_t>(1, total / scfg_.period);

    // ---- Functional warming, with every window's replay streamed
    // behind its checkpoint. ----
    //
    // Windows are aggregated in checkpoint order, so the result is the
    // same at every pool width.
    StatsAggregator agg;
    std::deque<std::future<WindowSample>> replays; // checkpoint order
    std::unique_ptr<sim::ThreadPool> pool;
    if (width_ >= 2)
        pool = std::make_unique<sim::ThreadPool>(width_);
    auto collect_oldest = [&] {
        agg.add(replays.front().get());
        replays.pop_front();
    };

    const size_t bound = liveBlobBound();
    for (uint64_t k = 0; k < n_ckpt; ++k) {
        warm.setPerCoreBudget(k * scfg_.period);
        if (!warm.runToBudget())
            fatal("sampling: functional warming hit the tick limit");
        // Backpressure: every live blob belongs to an uncollected
        // replay, so a blob past the bound waits for the oldest one.
        while (replays.size() >= bound)
            collect_oldest();
        Checkpoint ckpt = capture(warm, k * scfg_.period);
        track(ckpt);
        auto task = std::make_shared<std::packaged_task<WindowSample()>>(
            [this, k, ckpt = std::move(ckpt)]() mutable {
                return replayCheckpoint(std::move(ckpt), k);
            });
        replays.push_back(task->get_future());
        if (pool)
            pool->submit([task] { (*task)(); });
        else
            (*task)();
    }
    // The stream past the last checkpoint feeds no replay window, so
    // executing it buys nothing measurable — skip it unless the
    // differential oracle is on (SILC_CHECK verifies the whole stream).
    // The budget is still raised to the nominal total so the base
    // result reports the workload size the estimates stand for;
    // footprint/occupancy diagnostics then cover the warmed prefix.
    uint64_t warmed = (n_ckpt - 1) * scfg_.period;
    warm.setPerCoreBudget(total);
    if (cfg_.check) {
        if (!warm.runToBudget())
            fatal("sampling: functional warming hit the tick limit");
        warmed = total;
    }
    sim::SimResult base = warm.collectResult(true);
    while (!replays.empty())
        collect_oldest();

    // ---- Aggregate into a SimResult + report. ----
    auto report = std::make_shared<SamplingReport>();
    report->period = scfg_.period;
    report->window = scfg_.window;
    report->warmup = scfg_.warmup;
    report->checkpoints = static_cast<uint32_t>(n_ckpt);
    report->windows = static_cast<uint32_t>(agg.windows());
    report->warm_instructions = warmed;
    report->metrics = agg.estimates();

    sim::SimResult r = base;
    r.hit_tick_limit = false;
    const MetricEstimate *ipc = report->find("ipc");
    if (ipc != nullptr && ipc->mean > 0.0) {
        r.ipc = ipc->mean;
        r.ticks = static_cast<Tick>(
            static_cast<double>(r.instructions) /
            (static_cast<double>(r.cores) * r.ipc));
        if (r.ticks == 0)
            r.ticks = 1;
    }
    const MetricEstimate *mpki = report->find("mpki");
    if (mpki != nullptr) {
        r.mpki = mpki->mean;
        r.llc_misses = static_cast<uint64_t>(
            r.mpki * static_cast<double>(r.instructions) / 1000.0);
    }
    r.avg_miss_latency = report->find("avg_miss_latency")->mean;
    r.access_rate = report->find("access_rate")->mean;

    // Extrapolate demand-byte totals from the measured windows so
    // nmDemandFraction() (Figure 8) works on sampled results; other
    // traffic classes are not estimated and stay zero.
    uint64_t win_nm = 0;
    uint64_t win_fm = 0;
    uint64_t win_instr = 0;
    for (const auto &s : agg.samples()) {
        win_nm += s.nm_demand_bytes;
        win_fm += s.fm_demand_bytes;
        win_instr += s.instructions;
    }
    if (win_instr > 0) {
        const double scale = static_cast<double>(r.instructions) /
            static_cast<double>(win_instr);
        r.nm_demand_bytes =
            static_cast<uint64_t>(static_cast<double>(win_nm) * scale);
        r.fm_demand_bytes =
            static_cast<uint64_t>(static_cast<double>(win_fm) * scale);
    }
    r.sampling = report;
    return r;
}

sim::SimResult
runMaybeSampled(const sim::SystemConfig &cfg, const SamplingConfig &scfg)
{
    const policy::SchemeInfo &scheme =
        policy::SchemeRegistry::instance().resolve(cfg.scheme);
    if (!scheme.traits.checkpointable) {
        warn("policy '%s' carries tick-coupled state; running %s in "
             "full detail instead of sampling",
             scheme.name.c_str(), cfg.workload.c_str());
        sim::System system(cfg);
        return system.run();
    }
    return SamplingController(cfg, scfg).run();
}

} // namespace sample
} // namespace silc
