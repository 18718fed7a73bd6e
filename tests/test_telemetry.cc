/**
 * @file
 * Tests for the silc::telemetry subsystem: the Recorder's epoch
 * delta/rate/ratio math and lifecycle, each driven through a real
 * EventQueue, Distribution percentile extraction, and the structured
 * JSON result export (sim/result_writer.hh) end to end on a mini run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/result_writer.hh"
#include "sim/system.hh"
#include "telemetry/json.hh"
#include "telemetry/recorder.hh"

using namespace silc;
using namespace silc::telemetry;

// ---------------------------------------------------------------- JSON

TEST(TelemetryJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape("new\nline"), "new\\nline");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
    EXPECT_EQ(jsonString("run/id"), "\"run/id\"");
}

TEST(TelemetryJson, DoubleFormattingIsShortRoundTrip)
{
    EXPECT_EQ(jsonDouble(0.0), "0");
    EXPECT_EQ(jsonDouble(1.0), "1");
    EXPECT_EQ(jsonDouble(0.5), "0.5");
    EXPECT_EQ(jsonDouble(-2.25), "-2.25");
    // Non-finite values have no JSON representation.
    EXPECT_EQ(jsonDouble(std::nan("")), "null");
    EXPECT_EQ(jsonDouble(INFINITY), "null");
    // Round trip: parsing the text recovers the exact bits.
    const double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(jsonDouble(v)), v);
}

// ------------------------------------------------------------ Recorder

namespace {

/** A probe change applied at a tick. */
using Step = std::pair<Tick, std::function<void()>>;

/**
 * Start @p rec on a fresh EventQueue, apply each of @p steps at its
 * tick, run the queue tick by tick through @p end, as the simulator's
 * main loop does (a single runDue(end) would forbid the Recorder's
 * self-rescheduling at the boundaries before @p end), then finish() at
 * @p end, which samples a tail epoch when @p end is past the last
 * boundary.  The steps land mid-epoch, so each boundary samples the
 * values set before it.
 */
const TimeSeries &
drive(Recorder &rec, const std::vector<Step> &steps, Tick end)
{
    EventQueue events;
    rec.start(events);
    for (const auto &[at, apply] : steps)
        events.schedule(at, [apply](Tick) { apply(); });
    for (Tick t = 0; t <= end; ++t)
        events.runDue(t);
    rec.finish(end);
    return *rec.series();
}

} // namespace

TEST(Recorder, GaugeReadsRawValueEachEpoch)
{
    double live = 3.0;
    Recorder rec(100, "unit/test");
    rec.addGauge("g", [&] { return live; });

    const TimeSeries &ts = drive(rec, {{150, [&] { live = 7.5; }}}, 200);
    ASSERT_EQ(ts.epochs.size(), 2u);
    EXPECT_EQ(ts.epochs[0].values[0], 3.0);
    EXPECT_EQ(ts.epochs[1].values[0], 7.5);
}

TEST(Recorder, CounterDerivesPerEpochDeltas)
{
    uint64_t count = 0;
    Recorder rec(100, "unit/test");
    rec.addCounter("c", [&] { return static_cast<double>(count); });

    const TimeSeries &ts = drive(rec,
                                 {{50, [&] { count = 10; }},
                                  {150, [&] { count = 25; }}},
                                 300);
    ASSERT_EQ(ts.epochs.size(), 3u);
    EXPECT_EQ(ts.epochs[0].values[0], 10.0);
    EXPECT_EQ(ts.epochs[1].values[0], 15.0);
    // No movement: delta is zero, not the cumulative value.
    EXPECT_EQ(ts.epochs[2].values[0], 0.0);
}

TEST(Recorder, RateDividesDeltaByElapsedTicks)
{
    uint64_t retired = 0;
    Recorder rec(100, "unit/test");
    rec.addRate("ipc", [&] { return static_cast<double>(retired); });

    const TimeSeries &ts = drive(rec,
                                 {{50, [&] { retired = 50; }},
                                  {125, [&] { retired = 80; }}},
                                 150);
    ASSERT_EQ(ts.epochs.size(), 2u);
    EXPECT_EQ(ts.epochs[0].elapsed, 100u);
    EXPECT_DOUBLE_EQ(ts.epochs[0].values[0], 0.5);

    // A short tail epoch uses its actual elapsed ticks.
    EXPECT_EQ(ts.epochs[1].elapsed, 50u);
    EXPECT_DOUBLE_EQ(ts.epochs[1].values[0], 30.0 / 50.0);
}

TEST(Recorder, RatioUsesDeltasOfBothCounters)
{
    uint64_t hits = 0, total = 0;
    Recorder rec(100, "unit/test");
    rec.addRatio("hitRate", [&] { return static_cast<double>(hits); },
                 [&] { return static_cast<double>(total); });

    const TimeSeries &ts = drive(rec,
                                 {{50,
                                   [&] {
                                       hits = 8;
                                       total = 10;
                                   }},
                                  {150,
                                   [&] {
                                       hits = 10;
                                       total = 20;
                                   }}},
                                 300);
    ASSERT_EQ(ts.epochs.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.epochs[0].values[0], 0.8);
    // Second epoch: 2 more hits out of 10 more requests — the per-epoch
    // ratio, not the cumulative 10/20.
    EXPECT_DOUBLE_EQ(ts.epochs[1].values[0], 0.2);
    // Idle epoch: denominator unmoved reads 0, not NaN.
    EXPECT_EQ(ts.epochs[2].values[0], 0.0);
}

TEST(Recorder, EpochRecordsCarryIndexTickAndElapsed)
{
    Recorder rec(100, "unit/test");
    rec.addGauge("g", [] { return 0.0; });

    const TimeSeries &ts = drive(rec, {}, 200);
    ASSERT_EQ(ts.epochs.size(), 2u);
    const EpochRecord &r0 = ts.epochs[0];
    const EpochRecord &r1 = ts.epochs[1];
    EXPECT_EQ(r0.index, 0u);
    EXPECT_EQ(r1.index, 1u);
    EXPECT_EQ(r1.tick, 200u);
    EXPECT_EQ(r1.elapsed, 100u);
    EXPECT_EQ(ts.header.epoch_ticks, 100u);
    EXPECT_EQ(ts.header.run_id, "unit/test");
}

TEST(Recorder, SamplesOnEpochBoundariesAndCapturesTail)
{
    uint64_t count = 0;
    Recorder rec(100, "unit/test");
    rec.addCounter("c", [&] { return static_cast<double>(count); });

    // Past two full epochs into a partial third.
    const TimeSeries &ts = drive(rec,
                                 {{50, [&] { count = 5; }},
                                  {150, [&] { count = 12; }},
                                  {225, [&] { count = 20; }}},
                                 230);
    ASSERT_EQ(ts.epochs.size(), 3u);
    EXPECT_EQ(ts.epochs[0].tick, 100u);
    EXPECT_EQ(ts.epochs[0].values[0], 5.0);
    EXPECT_EQ(ts.epochs[1].tick, 200u);
    EXPECT_EQ(ts.epochs[1].values[0], 7.0);
    // The tail epoch covers 200..230 only.
    EXPECT_EQ(ts.epochs[2].tick, 230u);
    EXPECT_EQ(ts.epochs[2].elapsed, 30u);
    EXPECT_EQ(ts.epochs[2].values[0], 8.0);

    // finish() is idempotent.
    rec.finish(500);
    EXPECT_EQ(ts.epochs.size(), 3u);
}

TEST(RecorderDeath, DuplicateProbeNamePanics)
{
    Recorder rec(100, "unit/test");
    rec.addGauge("dup", [] { return 0.0; });
    EXPECT_DEATH(rec.addGauge("dup", [] { return 0.0; }), "dup");
}

// --------------------------------------------------- Distribution p50/p95

TEST(DistributionPercentile, UniformFillInterpolatesLinearly)
{
    // 100 samples spread one per bucket over [0, 100).
    stats::Distribution d(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        d.sample(i + 0.5);

    EXPECT_NEAR(d.percentile(0.50), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(0.95), 95.0, 1.0);
    EXPECT_NEAR(d.percentile(0.99), 99.0, 1.0);
    EXPECT_NEAR(d.percentile(0.0), 0.0, 1.0);
}

TEST(DistributionPercentile, EdgeCases)
{
    stats::Distribution empty(0.0, 10.0, 10);
    EXPECT_EQ(empty.percentile(0.5), 0.0);

    stats::Distribution d(0.0, 10.0, 10);
    d.sample(-5.0);  // underflow clamps to min
    d.sample(50.0);  // overflow clamps to max
    EXPECT_EQ(d.percentile(0.0), 0.0);
    EXPECT_EQ(d.percentile(1.0), 10.0);
    // Out-of-range p clamps instead of reading out of bounds.
    EXPECT_EQ(d.percentile(-1.0), d.percentile(0.0));
    EXPECT_EQ(d.percentile(2.0), d.percentile(1.0));
}

TEST(Recorder, DistributionRegistersPercentileGauges)
{
    stats::Distribution d(0.0, 100.0, 100);
    Recorder rec(100, "unit/test");
    rec.addDistribution("lat", d);
    const std::vector<std::string> &names = rec.series()->header.probes;
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "lat.p50");
    EXPECT_EQ(names[1], "lat.p95");
    EXPECT_EQ(names[2], "lat.p99");

    const TimeSeries &ts = drive(rec,
                                 {{50,
                                   [&] {
                                       for (int i = 0; i < 100; ++i)
                                           d.sample(i + 0.5);
                                   }}},
                                 100);
    ASSERT_EQ(ts.epochs.size(), 1u);
    const std::vector<double> &values = ts.epochs[0].values;
    EXPECT_NEAR(values[0], 50.0, 1.0);
    EXPECT_NEAR(values[1], 95.0, 1.0);
    EXPECT_NEAR(values[2], 99.0, 1.0);
}

// --------------------------------------------- End-to-end on a System

namespace {

sim::SystemConfig
telemetryConfig(const std::string &workload, const std::string &kind)
{
    sim::ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = 40'000;
    opts.nm_bytes = 1 * 1024 * 1024;
    opts.fm_bytes = 4 * 1024 * 1024;
    opts.telemetry = true;
    opts.epoch_ticks = 20'000;
    return makeConfig(workload, kind, opts);
}

} // namespace

TEST(TelemetryEndToEnd, MiniRunRecordsSilcFmSeries)
{
    sim::System system(telemetryConfig("mcf", "silcfm"));
    sim::SimResult r = system.run();

    ASSERT_TRUE(r.telemetry != nullptr);
    const TimeSeries &ts = *r.telemetry;
    EXPECT_EQ(ts.header.run_id, "mcf/silcfm");
    EXPECT_EQ(ts.header.epoch_ticks, 20'000u);
    ASSERT_GE(ts.epochs.size(), 2u);

    // The paper-facing probes are present.
    const int hit = ts.probeIndex("policy.hitRate");
    const int swaps = ts.probeIndex("silcfm.swaps");
    const int nmq = ts.probeIndex("nm.ch0.readQ");
    const int rob = ts.probeIndex("cpu.robOccupancy");
    ASSERT_GE(hit, 0);
    ASSERT_GE(swaps, 0);
    ASSERT_GE(nmq, 0);
    ASSERT_GE(rob, 0);
    EXPECT_EQ(ts.probeIndex("nope"), -1);

    // Epoch hit rates are rates; the run did real work, so at least one
    // epoch saw NM service.
    double max_hit = 0.0;
    for (const auto &e : ts.epochs) {
        ASSERT_EQ(e.values.size(), ts.header.probes.size());
        EXPECT_GE(e.values[hit], 0.0);
        EXPECT_LE(e.values[hit], 1.0);
        max_hit = std::max(max_hit, e.values[hit]);
    }
    EXPECT_GT(max_hit, 0.0);

    // Deterministic: the same config reproduces the same series.
    sim::System again(telemetryConfig("mcf", "silcfm"));
    sim::SimResult r2 = again.run();
    ASSERT_TRUE(r2.telemetry != nullptr);
    ASSERT_EQ(r2.telemetry->epochs.size(), ts.epochs.size());
    for (size_t e = 0; e < ts.epochs.size(); ++e)
        EXPECT_EQ(r2.telemetry->epochs[e].values, ts.epochs[e].values);
}

TEST(TelemetryEndToEnd, DisabledRunCarriesNoSeries)
{
    sim::SystemConfig cfg =
        telemetryConfig("mcf", "silcfm");
    cfg.telemetry_epoch_ticks = 0;
    sim::System system(cfg);
    sim::SimResult r = system.run();
    EXPECT_TRUE(r.telemetry == nullptr);
}

// ------------------------------------------------------- ResultWriter

TEST(ResultWriter, JsonOutputPathPrecedence)
{
    const char *argv1[] = {"bench", "--json", "cli.json"};
    EXPECT_EQ(sim::jsonOutputPath(3, const_cast<char *const *>(argv1)),
              "cli.json");
    const char *argv2[] = {"bench", "--json=eq.json"};
    EXPECT_EQ(sim::jsonOutputPath(2, const_cast<char *const *>(argv2)),
              "eq.json");

    setenv("SILC_JSON", "env.json", 1);
    const char *argv3[] = {"bench"};
    EXPECT_EQ(sim::jsonOutputPath(1, const_cast<char *const *>(argv3)),
              "env.json");
    // CLI wins over the environment.
    EXPECT_EQ(sim::jsonOutputPath(2, const_cast<char *const *>(argv2)),
              "eq.json");
    unsetenv("SILC_JSON");
    EXPECT_EQ(sim::jsonOutputPath(1, const_cast<char *const *>(argv3)),
              "");
}

TEST(ResultWriter, SerializesSchemaAndRuns)
{
    sim::ExperimentOptions opts;
    opts.cores = 2;
    sim::ResultWriter writer("unused.json", opts);

    sim::SimResult r;
    r.scheme = "silcfm";
    r.workload = "mcf";
    r.cores = 2;
    r.ticks = 1000;
    r.ipc = 1.5;
    writer.add(r);
    EXPECT_EQ(writer.runs(), 1u);

    std::ostringstream os;
    writer.serialize(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema\":\"silc.results.v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"scheme\":\"silcfm\""), std::string::npos);
    EXPECT_NE(doc.find("\"ipc\":1.5"), std::string::npos);
    EXPECT_NE(doc.find("\"options\":{\"cores\":2"), std::string::npos);
    // No telemetry attached: the key is omitted entirely.
    EXPECT_EQ(doc.find("\"telemetry\""), std::string::npos);
}

TEST(ResultWriter, EmbedsTelemetrySeries)
{
    sim::System system(telemetryConfig("mcf", "silcfm"));
    sim::SimResult r = system.run();
    ASSERT_TRUE(r.telemetry != nullptr);

    sim::ResultWriter writer("unused.json", sim::ExperimentOptions{});
    writer.add(r);
    std::ostringstream os;
    writer.serialize(os);
    const std::string doc = os.str();
    EXPECT_NE(doc.find("\"telemetry\":{\"run\":\"mcf/silcfm\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"probes\":["), std::string::npos);
    EXPECT_NE(doc.find("\"epochs\":["), std::string::npos);
    EXPECT_NE(doc.find("policy.hitRate"), std::string::npos);
}
