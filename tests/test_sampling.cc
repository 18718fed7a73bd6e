/**
 * @file
 * Statistical sampling subsystem tests (src/sample/): blob
 * serialization, checkpoint round-trips, replay determinism, the HMA
 * fallback, and the headline differential property —
 * sampled metrics agree with a full detailed run within the reported
 * 95% confidence intervals.  Replays stream behind warming with a
 * bounded number of live checkpoint blobs.  The functional-warming engine
 * (sim/warming.cc) is checked against the per-cycle loop it replaced,
 * checkpoint blob for checkpoint blob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "core/silc_fm.hh"
#include "policy/registry.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace silc;
using namespace silc::sim;
using namespace silc::sample;

namespace {

/** RAII override of one environment variable (restored on exit). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

/**
 * The per-cycle functional-warming loop the warming engine replaced,
 * written out as its oracle.  Per cycle: events; then each core in
 * index order, unless its budget is retired or the cycle falls in its
 * kWarmBlackoutCycles blackout, takes `width` instructions from its
 * trace source and sends the memory ones through translation,
 * MemoryHierarchy::warmL1 and, on an L1d miss, warmShared; then the
 * DRAM and policy ticks.  It drives a System's own trace sources, hierarchy and
 * policy, so that System's checkpoints compare byte for byte with the
 * engine's.
 */
class ReferenceWarmer
{
  public:
    explicit ReferenceWarmer(System &sys)
        : sys_(sys), retired_(sys.config().cores, 0)
    {
    }

    /** One segment up to @p budget instructions per core.
     *  @return false when max_ticks cut it off. */
    bool
    run(uint64_t budget)
    {
        const SystemConfig &cfg = sys_.config();
        const Tick segment = cycle_;
        bool all_done = false;
        while (cycle_ < cfg.max_ticks) {
            const Tick cycle = cycle_;
            sys_.events().runDue(cycle);
            all_done = true;
            for (uint32_t c = 0; c < cfg.cores; ++c) {
                if (retired_[c] >= budget)
                    continue;
                if ((cycle - segment) / kWarmBlackoutCycles == c) {
                    all_done = false;
                    continue;
                }
                for (uint32_t k = 0; k < cfg.core_params.width &&
                                     retired_[c] < budget;
                     ++k) {
                    const trace::TraceInstruction ins =
                        sys_.traceSource(c).next();
                    if (ins.is_mem)
                        warmAccess(c, ins, cycle);
                    ++retired_[c];
                }
                all_done &= retired_[c] >= budget;
            }
            if (sys_.nm())
                sys_.nm()->tick(cycle);
            sys_.fm().tick(cycle);
            sys_.policyRef().tick(cycle);
            if (all_done)
                break;
            cycle_ = cycle + 1;
        }
        return all_done;
    }

    Tick cycle() const { return cycle_; }
    uint64_t retired(uint32_t c) const { return retired_[c]; }

  private:
    /** One access through both halves of the hierarchy back to back. */
    void
    warmAccess(uint32_t c, const trace::TraceInstruction &ins, Tick cycle)
    {
        MemoryHierarchy &h = sys_.hierarchy();
        const Addr paddr = sys_.translation().translate(c, ins.vaddr);
        Addr victim = kAddrInvalid;
        if (!h.warmL1(c, paddr, ins.is_write, victim))
            h.warmShared(c, paddr, ins.pc, ins.is_write, victim, cycle);
    }

    System &sys_;
    Tick cycle_ = 0;
    std::vector<uint64_t> retired_;
};

/**
 * Warm two identical systems in segments of @p period instructions per
 * core, as SamplingController does (budget 0 first, the whole budget
 * last) — one through runToBudget(), one through ReferenceWarmer — and
 * require identical pause cycles, retire counts, DRAM refreshes and
 * checkpoint blobs at every segment boundary.
 */
void
expectEngineMatchesReference(const SystemConfig &cfg, uint64_t period)
{
    System engine(cfg);
    engine.setFunctionalMode(true);
    System ref(cfg);
    ref.setFunctionalMode(true);
    ReferenceWarmer warmer(ref);

    uint64_t budget = 0;
    while (true) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        engine.setPerCoreBudget(budget);
        const bool ok = engine.runToBudget();
        ASSERT_EQ(ok, warmer.run(budget));
        ASSERT_EQ(engine.currentCycle(), warmer.cycle());
        for (uint32_t c = 0; c < cfg.cores; ++c)
            ASSERT_EQ(engine.core(c).retired(), warmer.retired(c));
        ASSERT_EQ(engine.fm().refreshes(), ref.fm().refreshes());
        if (engine.nm() != nullptr) {
            ASSERT_EQ(engine.nm()->refreshes(), ref.nm()->refreshes());
        }
        ASSERT_TRUE(capture(engine, budget).blob ==
                    capture(ref, budget).blob);
        if (!ok || budget == cfg.instructions_per_core)
            return;
        budget = std::min(budget + period, cfg.instructions_per_core);
    }
}

SystemConfig
sampleConfig(const std::string &workload, const std::string &kind,
             uint32_t cores = 4, uint64_t instr = 400'000)
{
    ExperimentOptions opts;
    opts.cores = cores;
    opts.instructions_per_core = instr;
    return makeConfig(workload, kind, opts);
}

/** The locally validated smoke fixture: windows stay inside the CI. */
SamplingConfig
smokeSamplingConfig()
{
    SamplingConfig s;
    s.period = 50'000;
    s.window = 5'000;
    s.warmup = 5'000;
    s.threads = 2;
    return s;
}

} // namespace

// ---- Blob serialization ------------------------------------------------

TEST(Serialize, RoundTrip)
{
    uint8_t u8 = 0xAB;
    uint32_t u32 = 0xDEADBEEF;
    uint64_t u64 = 0x0123456789ABCDEFull;
    int64_t i64 = -42;
    bool flag = true;
    double f64 = 3.25;
    std::string str = "hello";
    std::vector<uint32_t> items = {7, 9};

    Blob w;
    w.section("TEST");
    w.u8(u8);
    w.u32(u32);
    w.u64(u64);
    w.i64(i64);
    w.flag(flag);
    w.f64(f64);
    w.str(str);
    w.items(items, "items");
    w.done();
    // Tag, fixed-width fields, length-prefixed string, counted items.
    EXPECT_EQ(w.bytes().size(), 4u + 1 + 4 + 8 + 8 + 1 + 8 + (8 + 5) +
                                    (8 + 2 * 4));

    // Reading assigns every field back through the same calls.
    uint8_t r8 = 0;
    uint32_t r32 = 0;
    uint64_t r64 = 0;
    int64_t ri64 = 0;
    bool rflag = false;
    double rf64 = 0.0;
    std::string rstr;
    std::vector<uint32_t> ritems(2);
    Blob r(w.bytes());
    EXPECT_TRUE(r.reading());
    r.section("TEST");
    r.u8(r8);
    r.u32(r32);
    r.u64(r64);
    r.i64(ri64);
    r.flag(rflag);
    r.f64(rf64);
    r.str(rstr);
    r.items(ritems, "items");
    r.done();
    EXPECT_EQ(r8, 0xAB);
    EXPECT_EQ(r32, 0xDEADBEEFu);
    EXPECT_EQ(r64, 0x0123456789ABCDEFull);
    EXPECT_EQ(ri64, -42);
    EXPECT_TRUE(rflag);
    EXPECT_EQ(rf64, 3.25);
    EXPECT_EQ(rstr, "hello");
    EXPECT_EQ(ritems, items);
}

TEST(SerializeDeath, TruncationDies)
{
    uint32_t v32 = 7;
    Blob w;
    w.u32(v32);
    Blob r(w.bytes());
    r.u32(v32);
    uint64_t v64 = 0;
    EXPECT_DEATH(r.u64(v64), "truncated");
}

TEST(SerializeDeath, SectionMismatchDies)
{
    Blob w;
    w.section("AAAA");
    Blob r(w.bytes());
    EXPECT_DEATH(r.section("BBBB"), "section");
}

TEST(SerializeDeath, TrailingBytesDie)
{
    uint32_t v = 7;
    Blob w;
    w.u32(v);
    w.u32(v);
    Blob r(w.bytes());
    r.u32(v);
    EXPECT_DEATH(r.done(), "trailing");
}

TEST(SerializeDeath, SizeMismatchDies)
{
    std::vector<uint8_t> three(3), four(4);
    Blob w;
    w.items(three, "widget table size");
    Blob r(w.bytes());
    EXPECT_DEATH(r.items(four, "widget table size"),
                 "widget table size mismatch");
}

// ---- SamplingConfig ----------------------------------------------------

TEST(SamplingConfigDeath, WindowMustFitPeriod)
{
    SamplingConfig s;
    s.period = 10'000;
    s.warmup = 6'000;
    s.window = 5'000;
    EXPECT_DEATH(s.validate(), "fit within the period");
}

TEST(SamplingConfig, DefaultsValidate)
{
    SamplingConfig s;
    s.validate();
    EXPECT_EQ(s.period, 200'000u);
}

// ---- Student's t -------------------------------------------------------

TEST(StatsAggregatorTest, TCritical95)
{
    EXPECT_NEAR(StatsAggregator::tCritical95(1), 12.706, 1e-3);
    EXPECT_NEAR(StatsAggregator::tCritical95(5), 2.571, 1e-3);
    EXPECT_NEAR(StatsAggregator::tCritical95(30), 2.042, 1e-3);
    EXPECT_NEAR(StatsAggregator::tCritical95(100), 1.96, 1e-3);
}

TEST(StatsAggregatorTest, MeanAndCiHandChecked)
{
    StatsAggregator agg;
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        WindowSample s;
        s.ipc = v;
        agg.add(s);
    }
    const MetricEstimate e = agg.estimates().front();
    EXPECT_EQ(e.name, "ipc");
    EXPECT_EQ(e.n, 4u);
    EXPECT_DOUBLE_EQ(e.mean, 2.5);
    // s = sqrt(5/3), half = t(3) * s / 2 = 3.182 * 0.6455
    EXPECT_NEAR(e.ci_half, 3.182 * std::sqrt(5.0 / 3.0) / 2.0, 1e-3);
}

TEST(StatsAggregatorTest, SingleWindowHasZeroCi)
{
    StatsAggregator agg;
    WindowSample s;
    s.ipc = 1.5;
    agg.add(s);
    const MetricEstimate e = agg.estimates().front();
    EXPECT_EQ(e.name, "ipc");
    EXPECT_DOUBLE_EQ(e.mean, 1.5);
    EXPECT_DOUBLE_EQ(e.ci_half, 0.0);
}

// ---- Checkpoints -------------------------------------------------------

TEST(CheckpointTest, RoundTripIsByteExact)
{
    // Every checkpointable scheme, and SILC-FM on a recorded trace (the
    // file reader's stream position).
    const policy::SchemeRegistry &reg = policy::SchemeRegistry::instance();
    std::vector<SystemConfig> cfgs;
    for (const std::string &scheme : reg.names()) {
        if (reg.resolve(scheme).traits.checkpointable)
            cfgs.push_back(sampleConfig("mcf", scheme, 2, 100'000));
    }
    SystemConfig traced = sampleConfig("mcf", "silcfm", 2, 100'000);
    traced.trace_file =
        std::string(SILC_GOLDEN_DIR) + "/golden_stream.silctrace";
    cfgs.push_back(traced);

    for (const SystemConfig &cfg : cfgs) {
        SCOPED_TRACE(cfg.scheme + " " + cfg.trace_file);
        System warm(cfg);
        warm.setFunctionalMode(true);
        warm.setPerCoreBudget(30'000);
        ASSERT_TRUE(warm.runToBudget());
        const Checkpoint a = capture(warm, 30'000);

        // Restoring into a fresh system and re-capturing must reproduce
        // the blob byte for byte: nothing outside the checkpoint
        // affects it.
        System fresh(cfg);
        restore(fresh, a);
        const Checkpoint b = capture(fresh, 30'000);
        EXPECT_EQ(a.blob, b.blob);
        EXPECT_GT(a.blob.size(), 0u);
    }
}

TEST(CheckpointTest, ReplayFromCheckpointIsDeterministic)
{
    const SystemConfig cfg = sampleConfig("milc", "silcfm", 2,
                                          100'000);

    System warm(cfg);
    warm.setFunctionalMode(true);
    warm.setPerCoreBudget(40'000);
    ASSERT_TRUE(warm.runToBudget());
    const Checkpoint ckpt = capture(warm, 40'000);

    auto replay = [&](uint64_t budget) {
        SystemConfig rcfg = cfg;
        rcfg.instructions_per_core = budget;
        System sys(rcfg);
        restore(sys, ckpt);
        EXPECT_TRUE(sys.runToBudget());
        return std::make_pair(sys.currentCycle(),
                              sys.hierarchy().llcMisses());
    };
    const auto a = replay(10'000);
    const auto b = replay(10'000);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(CheckpointDeath, PolicyMismatchDies)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          100'000);
    System warm(cfg);
    warm.setFunctionalMode(true);
    warm.setPerCoreBudget(10'000);
    ASSERT_TRUE(warm.runToBudget());
    const Checkpoint ckpt = capture(warm, 10'000);

    SystemConfig other = sampleConfig("mcf", "cam", 2,
                                      100'000);
    System victim(other);
    EXPECT_DEATH(restore(victim, ckpt), "does not match");
}

TEST(CheckpointDeath, GeometryMismatchDies)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          100'000);
    System warm(cfg);
    warm.setFunctionalMode(true);
    warm.setPerCoreBudget(10'000);
    ASSERT_TRUE(warm.runToBudget());
    const Checkpoint ckpt = capture(warm, 10'000);

    SystemConfig other = cfg;
    other.l2.size_bytes /= 2;
    System victim(other);
    EXPECT_DEATH(restore(victim, ckpt), "l2 geometry mismatch");
}

TEST(CheckpointDeath, RestoreUnderOracleDies)
{
    // The oracle checks fresh runs only: a restore under SILC_CHECK is
    // refused whether the scheme has both tiers (silcfm) or only the
    // shadow tier (pom).  Sampled runs check their warming pass and
    // replay with the oracle off.
    for (const char *scheme : {"silcfm", "pom"}) {
        SystemConfig cfg = sampleConfig("mcf", scheme, 2, 100'000);
        cfg.check = true;
        System warm(cfg);
        warm.setFunctionalMode(true);
        warm.setPerCoreBudget(10'000);
        ASSERT_TRUE(warm.runToBudget()) << scheme;
        const Checkpoint ckpt = capture(warm, 10'000);

        System victim(cfg);
        EXPECT_DEATH(restore(victim, ckpt), "SILC_CHECK") << scheme;
    }
}

// ---- Functional warming ------------------------------------------------

TEST(FunctionalWarming, RunsFasterShapeAndFootprintMatch)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          100'000);

    System detailed(cfg);
    const SimResult full = detailed.run();

    System functional(cfg);
    functional.setFunctionalMode(true);
    ASSERT_TRUE(functional.runToBudget());
    const SimResult warm = functional.collectResult(true);

    // Functional warming executes the same instruction stream against
    // the same translation layer: the touched-page footprint is exact.
    EXPECT_EQ(warm.footprint_pages, full.footprint_pages);
    EXPECT_EQ(warm.instructions, full.instructions);
    // No DRAM traffic may be generated while warming.
    EXPECT_EQ(warm.nm_total_bytes + warm.fm_total_bytes, 0u);
    // Warming finishes in far fewer ticks than detailed execution.
    EXPECT_LT(warm.ticks, full.ticks / 2);
}

// ---- End-to-end sampling ----------------------------------------------

TEST(SamplingEndToEnd, SampledMetricsWithinReportedCi)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm");

    System detailed(cfg);
    const SimResult full = detailed.run();
    const auto *fullp = dynamic_cast<const core::SilcFmPolicy *>(
        &detailed.policyRef());
    ASSERT_NE(fullp, nullptr);
    const double full_swaps_per_kilo = 1000.0 *
        static_cast<double>(fullp->subblockSwaps()) /
        static_cast<double>(full.instructions);
    const double full_fm_p50 =
        detailed.fm().readDelayHistogram().percentile(0.50);
    const double full_fm_p95 =
        detailed.fm().readDelayHistogram().percentile(0.95);

    SamplingController ctl(cfg, smokeSamplingConfig());
    const SimResult sampled = ctl.run();
    ASSERT_NE(sampled.sampling, nullptr);
    const SamplingReport &rep = *sampled.sampling;
    EXPECT_EQ(rep.checkpoints, 8u);
    EXPECT_EQ(rep.windows, 8u);

    const auto within = [&](const char *name, double full_value) {
        const MetricEstimate *e = rep.find(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_LE(std::fabs(full_value - e->mean), e->ci_half)
            << name << ": full " << full_value << " vs sampled "
            << e->mean << " +/- " << e->ci_half;
    };
    within("ipc", full.ipc);
    within("mpki", full.mpki);
    within("avg_miss_latency", full.avg_miss_latency);
    within("access_rate", full.access_rate);
    within("swaps_per_kilo", full_swaps_per_kilo);
    within("fm_read_p50", full_fm_p50);
    within("fm_read_p95", full_fm_p95);

    // The synthesized result mirrors the window means.
    EXPECT_DOUBLE_EQ(sampled.ipc, rep.find("ipc")->mean);
    EXPECT_EQ(sampled.instructions, full.instructions);
    EXPECT_GT(sampled.footprint_pages, 0u);
}

TEST(SamplingEndToEnd, DeterministicAcrossPoolWidths)
{
    const SystemConfig cfg = sampleConfig("gcc", "silcfm", 2,
                                          200'000);
    SamplingConfig a = smokeSamplingConfig();
    a.threads = 1;
    SamplingConfig b = smokeSamplingConfig();
    b.threads = 3;

    const SimResult ra = SamplingController(cfg, a).run();
    const SimResult rb = SamplingController(cfg, b).run();
    ASSERT_NE(ra.sampling, nullptr);
    ASSERT_NE(rb.sampling, nullptr);
    EXPECT_EQ(ra.ticks, rb.ticks);
    EXPECT_EQ(ra.llc_misses, rb.llc_misses);
    EXPECT_DOUBLE_EQ(ra.ipc, rb.ipc);
    ASSERT_EQ(ra.sampling->metrics.size(), rb.sampling->metrics.size());
    for (size_t i = 0; i < ra.sampling->metrics.size(); ++i) {
        const MetricEstimate &ma = ra.sampling->metrics[i];
        const MetricEstimate &mb = rb.sampling->metrics[i];
        EXPECT_EQ(ma.name, mb.name);
        EXPECT_DOUBLE_EQ(ma.mean, mb.mean);
        EXPECT_DOUBLE_EQ(ma.ci_half, mb.ci_half);
    }
}

TEST(SamplingEndToEnd, HmaFallsBackToFullRun)
{
    const SystemConfig cfg = sampleConfig("mcf", "hma", 2,
                                          60'000);
    const SimResult r = runMaybeSampled(cfg, smokeSamplingConfig());
    EXPECT_EQ(r.sampling, nullptr);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_FALSE(r.hit_tick_limit);
    EXPECT_FALSE(policy::SchemeRegistry::instance()
                     .resolve(cfg.scheme)
                     .traits.checkpointable);
}

TEST(SamplingEndToEnd, SupportedPolicyMatrix)
{
    const auto supports = [](const std::string &k) {
        return policy::SchemeRegistry::instance()
            .resolve(k)
            .traits.checkpointable;
    };
    EXPECT_TRUE(supports("silcfm"));
    EXPECT_TRUE(supports("fmonly"));
    EXPECT_TRUE(supports("rand"));
    EXPECT_TRUE(supports("cam"));
    EXPECT_TRUE(supports("camp"));
    EXPECT_TRUE(supports("pom"));
    EXPECT_TRUE(supports("dramcache"));
    EXPECT_TRUE(supports("memcache"));
    EXPECT_FALSE(supports("hma"));
}

// ---- Replays streamed behind warming -----------------------------------

/**
 * Warmup and window fill the whole period of a bandwidth-bound run on
 * 8 cores: a replay costs about four warming segments, so warming runs
 * ahead of a narrow pool until the live-blob bound holds it back.
 */
SamplingConfig
streamingConfig(unsigned threads)
{
    SamplingConfig s;
    s.period = 10'000;
    s.warmup = 4'000;
    s.window = 6'000;
    s.threads = threads;
    return s;
}

TEST(StreamingReplay, LiveBlobsStayWithinTheBound)
{
    // 30 checkpoints, every one replayed.
    const SystemConfig cfg = sampleConfig("lbm", "silcfm", 8, 300'000);
    std::optional<SimResult> first;
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("width " + std::to_string(threads));
        SamplingController ctl(cfg, streamingConfig(threads));
        const SimResult r = ctl.run();
        ASSERT_NE(r.sampling, nullptr);
        EXPECT_EQ(r.sampling->windows, 30u);

        EXPECT_EQ(ctl.liveBlobBound(), 2u * threads);
        EXPECT_GE(ctl.peakLiveBlobs(), 1u);
        EXPECT_LE(ctl.peakLiveBlobs(), ctl.liveBlobBound());
        EXPECT_GT(ctl.peakLiveBlobBytes(), 0u);
        // Width 1 replays inline right after each capture.
        if (threads == 1) {
            EXPECT_EQ(ctl.peakLiveBlobs(), 1u);
        }

        if (!first) {
            first = r;
            continue;
        }
        EXPECT_DOUBLE_EQ(r.ipc, first->ipc);
        for (size_t i = 0; i < r.sampling->metrics.size(); ++i) {
            EXPECT_DOUBLE_EQ(r.sampling->metrics[i].mean,
                             first->sampling->metrics[i].mean);
            EXPECT_DOUBLE_EQ(r.sampling->metrics[i].ci_half,
                             first->sampling->metrics[i].ci_half);
        }
    }
}

// ---- Resumable run loop ------------------------------------------------

TEST(RunToBudget, PausesAtBudgetAndResumes)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          40'000);
    System sys(cfg);
    sys.setPerCoreBudget(10'000);
    ASSERT_TRUE(sys.runToBudget());
    const Tick t1 = sys.currentCycle();
    EXPECT_EQ(sys.core(0).retired(), 10'000u);
    EXPECT_EQ(sys.core(1).retired(), 10'000u);

    sys.setPerCoreBudget(40'000);
    ASSERT_TRUE(sys.runToBudget());
    EXPECT_GT(sys.currentCycle(), t1);
    EXPECT_EQ(sys.core(0).retired(), 40'000u);
    const SimResult r = sys.collectResult(true);
    EXPECT_EQ(r.instructions, 80'000u);
    EXPECT_FALSE(r.hit_tick_limit);
}

// ---- Warming engine vs the per-cycle loop ------------------------------

TEST(WarmingEngine, MatchesPerCycleLoopForEverySamplingScheme)
{
    for (const std::string &scheme :
         policy::SchemeRegistry::instance().names()) {
        if (!policy::SchemeRegistry::instance()
                 .resolve(scheme)
                 .traits.checkpointable)
            continue;
        const SystemConfig cfg = sampleConfig("mcf", scheme, 4, 60'000);
        SCOPED_TRACE(scheme);
        expectEngineMatchesReference(cfg, 20'000);
    }
}

TEST(WarmingEngine, MatchesAcrossCoreCounts)
{
    // 70'001 is a multiple of neither the width nor any chunk length,
    // and every segment spans several chunks.
    for (uint32_t cores : {1u, 3u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(cores) + " cores");
        expectEngineMatchesReference(
            sampleConfig("lbm", "silcfm", cores, 150'000), 70'001);
    }
}

TEST(WarmingEngine, MatchesTraceFileSource)
{
    SystemConfig cfg = sampleConfig("mcf", "silcfm", 3, 60'000);
    cfg.trace_file = std::string(SILC_GOLDEN_DIR) + "/golden_hotset.silctrace";
    expectEngineMatchesReference(cfg, 25'000);
}

TEST(WarmingEngine, MatchesUnderTheOracle)
{
    for (const char *scheme : {"silcfm", "dramcache"}) {
        SCOPED_TRACE(scheme);
        SystemConfig cfg = sampleConfig("milc", scheme, 4, 60'000);
        cfg.check = true;
        expectEngineMatchesReference(cfg, 20'000);
    }
}

TEST(WarmingEngine, MatchesAtEveryPoolWidth)
{
    for (const char *threads : {"1", "2", "4"}) {
        SCOPED_TRACE(std::string("SILC_THREADS=") + threads);
        ScopedEnv env("SILC_THREADS", threads);
        expectEngineMatchesReference(
            sampleConfig("soplex", "silcfm", 4, 100'000), 33'333);
    }
}

TEST(WarmingEngine, MatchesWithTickLimitInsideSegment)
{
    // Segments of 20'000 instructions take 5'000 active cycles plus the
    // 3'067-cycle blackout; the limit cuts the third one short.
    SystemConfig cfg = sampleConfig("mcf", "silcfm", 4, 80'000);
    cfg.max_ticks = 20'000;
    expectEngineMatchesReference(cfg, 20'000);

    System sys(cfg);
    sys.setFunctionalMode(true);
    sys.setPerCoreBudget(80'000);
    EXPECT_FALSE(sys.runToBudget());
    EXPECT_EQ(sys.currentCycle(), cfg.max_ticks);
    EXPECT_LT(sys.core(0).retired(), 80'000u);
}

TEST(WarmingEngine, FinishTicksMatchTheRetireSchedule)
{
    // Every core loses exactly its blackout cycles, so with equal
    // budgets all of them retire their last instruction together.
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2, 40'000);
    System sys(cfg);
    sys.setFunctionalMode(true);
    ASSERT_TRUE(sys.runToBudget());
    const Tick active = 40'000 / cfg.core_params.width;
    for (uint32_t c = 0; c < cfg.cores; ++c) {
        EXPECT_EQ(sys.core(c).finishTick(),
                  active - 1 + kWarmBlackoutCycles);
        EXPECT_EQ(sys.core(c).retired(), 40'000u);
        EXPECT_GT(sys.core(c).loads() + sys.core(c).stores(), 0u);
    }
    EXPECT_EQ(sys.currentCycle(), active - 1 + kWarmBlackoutCycles);
}

// ---- Warming engine preconditions --------------------------------------

TEST(WarmingEngineDeath, TelemetryMustBeOff)
{
    SystemConfig cfg = sampleConfig("mcf", "silcfm", 2, 10'000);
    cfg.telemetry_epoch_ticks = 100'000;
    System sys(cfg);
    sys.setFunctionalMode(true);
    EXPECT_DEATH(sys.runToBudget(), "telemetry off");
}

TEST(WarmingEngineDeath, EventQueueMustBeEmpty)
{
    System sys(sampleConfig("mcf", "silcfm", 2, 10'000));
    sys.setFunctionalMode(true);
    sys.events().schedule(5, [](Tick) {});
    EXPECT_DEATH(sys.runToBudget(), "empty event queue");
}

TEST(WarmingEngineDeath, NoStagedInstruction)
{
    // One MSHR for everyone: cores behind an outstanding miss stall
    // with the rejected instruction staged.  Cut a detailed run off
    // while one does, then ask for functional warming.
    SystemConfig cfg = sampleConfig("mcf", "silcfm", 4, 100'000);
    cfg.mshr_entries = 1;
    cfg.mshr_per_core = 1;
    bool staged = false;
    for (Tick limit = 100; limit < 5'000 && !staged; limit += 37) {
        cfg.max_ticks = limit;
        System sys(cfg);
        ASSERT_FALSE(sys.runToBudget());
        for (uint32_t c = 0; c < cfg.cores; ++c)
            staged |= sys.core(c).hasStaged();
        if (!staged)
            continue;
        sys.setFunctionalMode(true);
        EXPECT_DEATH(sys.runToBudget(), "staged instruction");
    }
    EXPECT_TRUE(staged);
}
