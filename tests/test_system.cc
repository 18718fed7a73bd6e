/**
 * @file
 * Integration tests: full System runs for every scheme, checking
 * termination, metric sanity, determinism, and cross-scheme orderings
 * the paper predicts.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "policy/registry.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

namespace {

SystemConfig
tinyConfig(const std::string &workload, const std::string &kind)
{
    ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = 40'000;
    opts.nm_bytes = 4 * 1024 * 1024;
    opts.fm_bytes = 16 * 1024 * 1024;
    return makeConfig(workload, kind, opts);
}

} // namespace

class AllSchemes : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllSchemes, RunsToCompletion)
{
    System system(tinyConfig("mcf", GetParam()));
    SimResult r = system.run();
    EXPECT_FALSE(r.hit_tick_limit);
    EXPECT_GT(r.ticks, 0u);
    EXPECT_EQ(r.instructions, 80'000u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 4.0);
}

TEST_P(AllSchemes, AccessRateInUnitRange)
{
    System system(tinyConfig("milc", GetParam()));
    SimResult r = system.run();
    EXPECT_GE(r.access_rate, 0.0);
    EXPECT_LE(r.access_rate, 1.0);
}

TEST_P(AllSchemes, DeterministicAcrossRuns)
{
    SimResult a = System(tinyConfig("gcc", GetParam())).run();
    SimResult b = System(tinyConfig("gcc", GetParam())).run();
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    EXPECT_EQ(a.nm_total_bytes, b.nm_total_bytes);
    EXPECT_EQ(a.fm_total_bytes, b.fm_total_bytes);
}

TEST_P(AllSchemes, EnergyPositive)
{
    System system(tinyConfig("lbm", GetParam()));
    SimResult r = system.run();
    EXPECT_GT(r.energy_total_j, 0.0);
    EXPECT_GT(r.edp, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AllSchemes,
    ::testing::Values("fmonly", "rand", "hma", "cam", "camp", "pom",
                      "dramcache", "memcache", "silcfm"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(SystemIntegration, FmOnlyUsesNoNm)
{
    System system(tinyConfig("mcf", "fmonly"));
    SimResult r = system.run();
    EXPECT_EQ(r.nm_total_bytes, 0u);
    EXPECT_GT(r.fm_total_bytes, 0u);
    EXPECT_DOUBLE_EQ(r.access_rate, 0.0);
}

TEST(SystemIntegration, RandomServicesSomeFromNm)
{
    System system(tinyConfig("mcf", "rand"));
    SimResult r = system.run();
    // NM is 1/5 of the flat space; random placement should put roughly
    // that fraction of demand there.
    EXPECT_GT(r.access_rate, 0.05);
    EXPECT_LT(r.access_rate, 0.5);
}

TEST(SystemIntegration, SilcFmBeatsNoMigrationOnHotWorkload)
{
    // The headline claim (Fig. 6): interleaved subblock placement beats
    // static placement on a bandwidth-bound workload.  Needs enough
    // instructions for the working set to be re-referenced at the LLC
    // miss level, so this test runs longer than the others.
    ExperimentOptions opts;
    opts.cores = 8;   // the bandwidth-bound regime the paper targets
    opts.instructions_per_core = 1'200'000;
    opts.nm_bytes = 4 * 1024 * 1024;
    opts.fm_bytes = 16 * 1024 * 1024;
    SimResult rand_r =
        System(makeConfig("milc", "rand", opts)).run();
    SimResult silc_r =
        System(makeConfig("milc", "silcfm", opts)).run();
    EXPECT_LT(silc_r.ticks, rand_r.ticks);
    EXPECT_GT(silc_r.access_rate, rand_r.access_rate);
}

TEST(SystemIntegration, SilcFmIntegrityAfterRun)
{
    SystemConfig cfg = tinyConfig("milc", "silcfm");
    System system(cfg);
    system.run();
    auto &silc_policy =
        dynamic_cast<core::SilcFmPolicy &>(system.policyRef());
    EXPECT_TRUE(silc_policy.verifyIntegrity());
}

TEST(SystemIntegration, MpkiClassesOrdered)
{
    // Table III: lbm (high) must show substantially more LLC MPKI than
    // dealii (low).
    SimResult low = System(tinyConfig("dealii", "fmonly")).run();
    SimResult high = System(tinyConfig("lbm", "fmonly")).run();
    EXPECT_GT(high.mpki, low.mpki);
}

TEST(SystemIntegration, CacheHitLatenciesComeFromTheCacheParams)
{
    // The Table II latencies in l1d/l2 are the ones the hierarchy
    // charges: an L2 hit costs l1d's plus l2's.
    SystemConfig cfg = tinyConfig("dealii", "silcfm");
    const Tick base = System(cfg).run().ticks;
    cfg.l2.latency_cycles += 20;
    EXPECT_GT(System(cfg).run().ticks, base);
}

TEST(SystemIntegration, SpeedupUsesSharedBaseline)
{
    ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = 30'000;
    opts.nm_bytes = 4 * 1024 * 1024;
    opts.fm_bytes = 16 * 1024 * 1024;
    ParallelRunner runner(opts, 1);
    SimResult r = runner.submit("omnet", "silcfm").get();
    const double s = runner.speedup(r);
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 10.0);
    // Cached baseline: second query must be identical.
    EXPECT_EQ(runner.baselineTicks("omnet"), runner.baselineTicks("omnet"));
}

TEST(SystemIntegration, SchemeNameRoundTripsThroughRegistry)
{
    // What used to be the PolicyKind enum round-trip: every registered
    // name resolves to a factory whose policy self-reports a name the
    // registry resolves straight back.
    const auto &reg = policy::SchemeRegistry::instance();
    for (const std::string &name : reg.names())
        EXPECT_EQ(reg.resolve(name).name, name);
}

TEST(SystemIntegration, GeomeanMatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
}

TEST(SystemIntegration, TranslationFootprintReported)
{
    System system(tinyConfig("mcf", "silcfm"));
    SimResult r = system.run();
    EXPECT_GT(r.footprint_pages, 0u);
}

// ---- trace replay through the full system ----------------------------------------

#include <cstdio>

#include "trace/file_trace.hh"

TEST(SystemIntegration, RecordedTraceReplaysIdentically)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/silc_system.trace";
    {
        trace::SyntheticGenerator gen(trace::findProfile("gcc"),
                                      7919 + 13);   // core 0's seed
        trace::TraceWriter writer(path);
        writer.record(gen, 50'000);
    }
    SystemConfig synth = tinyConfig("gcc", "silcfm");
    synth.cores = 1;
    synth.seed = 1;   // core 0 seed = 1*7919 + 13
    synth.instructions_per_core = 40'000;
    SimResult a = System(synth).run();

    SystemConfig replay = synth;
    replay.trace_file = path;
    SimResult b = System(replay).run();

    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    std::remove(path.c_str());
}

TEST(SystemIntegration, StatsDumpCoversComponents)
{
    // lbm moves over 10^6 NM bytes even at this scale, so the dump must
    // print counters past six significant digits.
    SystemConfig cfg = tinyConfig("lbm", "silcfm");
    System system(cfg);
    system.run();
    std::ostringstream os;
    system.dumpStats(os);
    const std::string text = os.str();
    for (const char *needle :
         {"core0.retired", "l2.misses", "llc.avgMissLatency",
          "nm.rowHits", "fm.demandBytes", "policy.accessRate"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
    // Values render next to descriptions.
    EXPECT_NE(text.find("# instructions retired"), std::string::npos);

    // Counters print exactly, never in e+ notation.
    std::istringstream lines(text);
    std::string line;
    std::string nm_bytes;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string name, value;
        fields >> name >> value;
        if (name == "silcfm.nm.bytes")
            nm_bytes = value;
    }
    EXPECT_EQ(nm_bytes, std::to_string(system.nm()->traffic().total()));
}
