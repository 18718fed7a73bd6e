/**
 * @file
 * Unit tests for the sim-layer pieces not covered by the integration
 * suite: virtual-to-physical translation, SimResult helpers, experiment
 * configuration building and config validation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "sim/translation.hh"

using namespace silc;
using namespace silc::sim;

// ---- translation -----------------------------------------------------------

TEST(Translation, FirstTouchAllocatesOnce)
{
    Translation t(1_MiB, 1, 1);
    const Addr p1 = t.translate(0, 0x1000'0000);
    const Addr p2 = t.translate(0, 0x1000'0000);
    EXPECT_EQ(p1, p2);
    EXPECT_EQ(t.pagesAllocated(), 1u);
}

TEST(Translation, OffsetsPreservedWithinPage)
{
    Translation t(1_MiB, 1, 1);
    const Addr base = t.translate(0, 0x1000'0000);
    const Addr off = t.translate(0, 0x1000'0000 + 100);
    EXPECT_EQ(off, base + 100);
    EXPECT_EQ(t.pagesAllocated(), 1u);
}

TEST(Translation, DistinctPagesDistinctFrames)
{
    Translation t(4_MiB, 1, 1);
    std::set<uint64_t> frames;
    for (int i = 0; i < 512; ++i) {
        const Addr paddr =
            t.translate(0, 0x1000'0000 + i * kLargeBlockSize);
        EXPECT_TRUE(frames.insert(paddr >> kLargeBlockBits).second);
    }
}

TEST(Translation, CoresAreIsolated)
{
    Translation t(1_MiB, 2, 1);
    const Addr a = t.translate(0, 0x1000'0000);
    const Addr b = t.translate(1, 0x1000'0000);
    EXPECT_NE(a >> kLargeBlockBits, b >> kLargeBlockBits);
}

TEST(Translation, PlacementIsRandomised)
{
    // With a shuffled free list the first few allocations should not be
    // the first few frames in order.
    Translation t(16_MiB, 1, 123);
    bool nonsequential = false;
    Addr prev = t.translate(0, 0);
    for (int i = 1; i < 16; ++i) {
        const Addr cur =
            t.translate(0, static_cast<Addr>(i) * kLargeBlockSize);
        if (cur >> kLargeBlockBits !=
            (prev >> kLargeBlockBits) + 1) {
            nonsequential = true;
        }
        prev = cur;
    }
    EXPECT_TRUE(nonsequential);
}

TEST(Translation, DeterministicPerSeed)
{
    Translation a(4_MiB, 1, 9), b(4_MiB, 1, 9), c(4_MiB, 1, 10);
    EXPECT_EQ(a.translate(0, 0x5000), b.translate(0, 0x5000));
    // A different seed gives a different shuffle (overwhelmingly).
    bool differs = false;
    for (int i = 0; i < 32; ++i) {
        const Addr va = 0x5000 + i * kLargeBlockSize;
        Translation c2(4_MiB, 1, 10);
        (void)c2;
        if (a.translate(0, va) != c.translate(0, va))
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(Translation, ExhaustionIsFatal)
{
    Translation t(4 * kLargeBlockSize, 1, 1);
    for (int i = 0; i < 4; ++i)
        t.translate(0, static_cast<Addr>(i) * kLargeBlockSize);
    EXPECT_DEATH(t.translate(0, 100 * kLargeBlockSize),
                 "out of physical memory");
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, NmDemandFraction)
{
    SimResult r;
    r.nm_demand_bytes = 300;
    r.fm_demand_bytes = 100;
    EXPECT_DOUBLE_EQ(r.nmDemandFraction(), 0.75);
    SimResult empty;
    EXPECT_DOUBLE_EQ(empty.nmDemandFraction(), 0.0);
}

TEST(Metrics, SecondsConversion)
{
    SimResult r;
    r.ticks = 3'200'000'000ull;
    EXPECT_DOUBLE_EQ(r.seconds(), 1.0);
    EXPECT_DOUBLE_EQ(r.seconds(1.6e9), 2.0);
}

TEST(Metrics, GeomeanProperties)
{
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    // Scale invariance: geomean(k*x) = k * geomean(x).
    const double g1 = geomean({1.2, 1.5, 0.8});
    const double g2 = geomean({2.4, 3.0, 1.6});
    EXPECT_NEAR(g2, 2.0 * g1, 1e-12);
}

TEST(Metrics, GeomeanEdgeCases)
{
    // Empty input is defined as 0, not NaN.
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    // The log-domain accumulation must not overflow where a naive
    // product of large speedups would (1e200^3 >> DBL_MAX).
    const double big = geomean({1e200, 1e200, 1e200});
    EXPECT_TRUE(std::isfinite(big));
    EXPECT_NEAR(big, 1e200, 1e188);
    // ... and symmetrically must not underflow to zero.
    const double tiny = geomean({1e-200, 1e-200, 1e-200});
    EXPECT_GT(tiny, 0.0);
    EXPECT_NEAR(tiny, 1e-200, 1e-212);
}

TEST(Metrics, SecondsZeroTicks)
{
    SimResult r;
    EXPECT_DOUBLE_EQ(r.seconds(), 0.0);
    EXPECT_DOUBLE_EQ(r.seconds(1.0), 0.0);
}

TEST(Metrics, NmDemandFractionZeroDenominators)
{
    // All-FM traffic: fraction is 0 without dividing by zero.
    SimResult fm_only;
    fm_only.fm_demand_bytes = 512;
    EXPECT_DOUBLE_EQ(fm_only.nmDemandFraction(), 0.0);
    // All-NM traffic: fraction is exactly 1.
    SimResult nm_only;
    nm_only.nm_demand_bytes = 512;
    EXPECT_DOUBLE_EQ(nm_only.nmDemandFraction(), 1.0);
}

// ---- experiment options -------------------------------------------------------

TEST(Experiment, MakeConfigAppliesOptions)
{
    ExperimentOptions opts;
    opts.cores = 3;
    opts.instructions_per_core = 1234;
    opts.nm_bytes = 2_MiB;
    opts.fm_bytes = 8_MiB;
    opts.seed = 77;
    SystemConfig cfg = makeConfig("gcc", "cam", opts);
    EXPECT_EQ(cfg.cores, 3u);
    EXPECT_EQ(cfg.instructions_per_core, 1234u);
    EXPECT_EQ(cfg.nm_bytes, 2_MiB);
    EXPECT_EQ(cfg.fm_bytes, 8_MiB);
    EXPECT_EQ(cfg.seed, 77u);
    EXPECT_EQ(cfg.workload, "gcc");
    EXPECT_EQ(cfg.scheme, "cam");
}

TEST(Experiment, ScaledKnobsTrackInstructionCount)
{
    ExperimentOptions small, large;
    small.instructions_per_core = 400'000;
    large.instructions_per_core = 4'000'000;
    SystemConfig a = makeConfig("gcc", "silcfm", small);
    SystemConfig b = makeConfig("gcc", "silcfm", large);
    EXPECT_LT(a.silc.aging_interval, b.silc.aging_interval);
    EXPECT_LT(a.hma.epoch_ticks, b.hma.epoch_ticks);
}

TEST(Experiment, RunnerCachesBaselinePerWorkload)
{
    ExperimentOptions opts;
    opts.cores = 1;
    opts.instructions_per_core = 20'000;
    opts.nm_bytes = 2_MiB;
    opts.fm_bytes = 8_MiB;
    ParallelRunner runner(opts, 1);
    const Tick a = runner.baselineTicks("gcc");
    const Tick b = runner.baselineTicks("gcc");
    EXPECT_EQ(a, b);
    const Tick c = runner.baselineTicks("mcf");
    EXPECT_NE(a, c);
    EXPECT_EQ(runner.baselineRuns(), 2u);
}

// ---- config validation ----------------------------------------------------------

TEST(SystemConfigValidation, CapacityRatioEnforced)
{
    SystemConfig cfg = SystemConfig::defaults();
    cfg.nm_bytes = 3 * 1024 * 1024;
    cfg.fm_bytes = 16 * 1024 * 1024;   // not a multiple of 3MiB
    EXPECT_DEATH(cfg.validate(), "multiple");
}

TEST(SystemConfigValidation, FmOnlyIgnoresRatio)
{
    SystemConfig cfg = SystemConfig::defaults();
    cfg.scheme = "fmonly";
    cfg.nm_bytes = 3 * 1024 * 1024;
    cfg.fm_bytes = 16 * 1024 * 1024;
    cfg.validate();   // must not die
}

TEST(SystemConfigValidation, ZeroCoresFatal)
{
    SystemConfig cfg = SystemConfig::defaults();
    cfg.cores = 0;
    EXPECT_DEATH(cfg.validate(), "core");
}

TEST(SystemConfigValidation, ZeroBudgetFatal)
{
    SystemConfig cfg = SystemConfig::defaults();
    cfg.instructions_per_core = 0;
    EXPECT_DEATH(cfg.validate(), "budget");
}

TEST(SystemConfigValidation, DefaultBandwidthRatioIsFourToOne)
{
    // Section III-E's bypass math (target 0.8 = N/(N+1)) requires the
    // configured system to keep NM:FM peak bandwidth at 4:1.
    SystemConfig cfg = SystemConfig::defaults();
    const double ratio = cfg.nm_timing.peakBytesPerTick() /
        cfg.fm_timing.peakBytesPerTick();
    EXPECT_DOUBLE_EQ(ratio, 4.0);
}

// ---- stats dump integration ------------------------------------------------------

#include <sstream>

TEST(Experiment, EnvOverridesApply)
{
    // fromEnv honours SILC_* variables (set locally for this test).
    setenv("SILC_CORES", "3", 1);
    setenv("SILC_INSTR", "12345", 1);
    setenv("SILC_SEED", "42", 1);
    setenv("SILC_EPOCH_TICKS", "20000", 1);
    setenv("SILC_CHECK", "1", 1);
    ExperimentOptions o = ExperimentOptions::fromEnv();
    EXPECT_EQ(o.cores, 3u);
    EXPECT_EQ(o.instructions_per_core, 12345u);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.epoch_ticks, 20000u);
    EXPECT_TRUE(o.check);
    unsetenv("SILC_CORES");
    unsetenv("SILC_INSTR");
    unsetenv("SILC_SEED");
    unsetenv("SILC_EPOCH_TICKS");
    unsetenv("SILC_CHECK");
}

TEST(Experiment, NmFmEnvInMiB)
{
    setenv("SILC_NM_MIB", "2", 1);
    setenv("SILC_FM_MIB", "8", 1);
    ExperimentOptions o = ExperimentOptions::fromEnv();
    EXPECT_EQ(o.nm_bytes, 2_MiB);
    EXPECT_EQ(o.fm_bytes, 8_MiB);
    unsetenv("SILC_NM_MIB");
    unsetenv("SILC_FM_MIB");
}
