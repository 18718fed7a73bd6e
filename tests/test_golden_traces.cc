/**
 * @file
 * Golden-trace regression: three small recorded traces (tests/golden/)
 * replay through full-system configurations — SILC-FM on all three,
 * plus the die-stacked DRAM cache and MemCache rivals on the stream
 * and hotset traces — and the resulting SimResult JSON must match the
 * committed goldens byte for byte.  Any
 * change in functional behaviour, timing, metric plumbing, or JSON
 * formatting shows up as a diff here before it can silently shift the
 * paper's figures.
 *
 * Every run also executes under the differential oracle (check=true),
 * so a golden can only be regenerated from a state the reference model
 * agrees with.
 *
 * Three sampled runs (sample/sampling.hh) are pinned the same way: a
 * checkpoint count that is no multiple of the replay batch, an IPC
 * confidence target that stops replay after the first batch, and
 * check=true, where warming runs to the full budget.  Their replay
 * pool follows SILC_THREADS, so every CI leg compares the same golden
 * at its own width.
 *
 * Checkpoint blobs are pinned by size and FNV-1a 64 digest
 * (golden_checkpoints.json): every checkpointable scheme warms mcf on
 * three cores and is captured at several per-core budgets, and SILC-FM
 * is captured once more on a recorded trace.  A format change that
 * writer and reader make together still round-trips within one build;
 * only this golden sees it move across commits.
 *
 * Regenerating after an intentional behaviour change:
 *
 *     GOLDEN_REGEN=1 ./tests/test_golden_traces
 *
 * then inspect the diff of tests/golden/\*.json and commit it together
 * with the change that caused it (see TESTING.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "sim/experiment.hh"
#include "sim/result_writer.hh"
#include "sim/system.hh"

using namespace silc;

namespace {

std::string
goldenPath(const std::string &file)
{
    return std::string(SILC_GOLDEN_DIR) + "/" + file;
}

/** Distinct configuration per (trace, scheme) to spread coverage. */
sim::SystemConfig
configFor(const std::string &name, const std::string &scheme)
{
    sim::SystemConfig cfg = sim::SystemConfig::defaults();
    cfg.cores = 2;
    cfg.instructions_per_core = 25'000;
    cfg.nm_bytes = 1_MiB;
    cfg.fm_bytes = 4_MiB;
    cfg.scheme = scheme;
    cfg.workload = name;
    cfg.trace_file = goldenPath(name + ".silctrace");
    cfg.check = true;
    cfg.silc.aging_interval = 2'000;
    cfg.silc.hot_threshold = 6;
    if (name == "golden_stream") {
        cfg.silc.associativity = 1;
        cfg.silc.bypass_window = 512;
    } else if (name == "golden_hotset") {
        cfg.silc.associativity = 2;
        cfg.silc.hot_threshold = 4;
    } else if (name == "golden_conflict") {
        cfg.silc.associativity = 4;
        cfg.silc.history_min_bits = 2;
    }
    // Exercise the non-default corners of the rival schemes too.
    if (scheme == "dramcache") {
        cfg.dramcache.ways = 2;
    } else if (scheme == "memcache") {
        cfg.memcache.mem_percent = 50;
        cfg.memcache.ways = 2;
    }
    return cfg;
}

std::string
toJson(const sim::SimResult &r)
{
    std::ostringstream os;
    sim::writeResultJson(os, r);
    os << "\n";
    return os.str();
}

std::string
runToJson(const std::string &name, const std::string &scheme)
{
    sim::System system(configFor(name, scheme));
    return toJson(system.run());
}

struct GoldenCase
{
    const char *trace;
    const char *scheme;
};

/** silcfm keeps its historical <trace>.json golden names. */
std::string
goldenJsonName(const GoldenCase &c)
{
    const std::string trace = c.trace;
    const std::string scheme = c.scheme;
    return scheme == "silcfm" ? trace + ".json"
                              : trace + "_" + scheme + ".json";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Compare @p json with @p file, or rewrite the file under GOLDEN_REGEN. */
void
expectMatchesGolden(const std::string &json, const std::string &file)
{
    const std::string golden_file = goldenPath(file);

    if (std::getenv("GOLDEN_REGEN") != nullptr) {
        std::ofstream out(golden_file, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_file;
        out << json;
        GTEST_SKIP() << "regenerated " << golden_file;
    }

    const std::string golden = readFile(golden_file);
    ASSERT_FALSE(golden.empty())
        << golden_file
        << " missing - run with GOLDEN_REGEN=1 to create it";
    EXPECT_EQ(json, golden)
        << "result JSON diverged from " << golden_file
        << "; if the behaviour change is intentional, regenerate with "
           "GOLDEN_REGEN=1 and commit the diff";
}

/** A sampled run of mcf on two cores, every 10k instructions. */
struct SampledCase
{
    const char *name;          ///< golden is <name>.json
    uint64_t instructions;     ///< per core
    bool check;                ///< warm under the oracle, to the end
};

constexpr uint64_t kSampledPeriod = 10'000;

sim::SimResult
runSampled(const SampledCase &c)
{
    sim::ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = c.instructions;
    sim::SystemConfig cfg = sim::makeConfig("mcf", "silcfm", opts);
    cfg.check = c.check;
    sample::SamplingConfig s;
    s.period = kSampledPeriod;
    s.warmup = 2'000;
    s.window = 2'000;
    return sample::SamplingController(cfg, s).run();
}

/** FNV-1a 64 of @p bytes. */
uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Warm @p cfg functionally and add one golden entry per budget of
 * @p budgets (ascending): the blob captured there, by size and digest.
 */
void
addCheckpointEntries(std::vector<std::string> &entries,
                     const std::string &label, const sim::SystemConfig &cfg,
                     std::initializer_list<uint64_t> budgets)
{
    sim::System warm(cfg);
    warm.setFunctionalMode(true);
    for (uint64_t budget : budgets) {
        warm.setPerCoreBudget(budget);
        ASSERT_TRUE(warm.runToBudget()) << label << " at " << budget;
        const std::vector<uint8_t> blob =
            sample::capture(warm, budget).blob;
        char entry[256];
        std::snprintf(entry, sizeof entry,
                      "  \"%s/%llu\": {\"bytes\": %zu, \"fnv1a64\": "
                      "\"%016llx\"}",
                      label.c_str(), static_cast<unsigned long long>(budget),
                      blob.size(),
                      static_cast<unsigned long long>(fnv1a64(blob)));
        entries.push_back(entry);
    }
}

} // namespace

TEST(GoldenCheckpoint, BlobBytesAreStable)
{
    const policy::SchemeRegistry &reg = policy::SchemeRegistry::instance();
    sim::ExperimentOptions opts;
    opts.cores = 3;
    opts.instructions_per_core = 150'000;
    std::vector<std::string> entries;
    for (const std::string &scheme : reg.names()) {
        if (reg.resolve(scheme).traits.checkpointable) {
            addCheckpointEntries(entries, "mcf/" + scheme + "/3c",
                                 sim::makeConfig("mcf", scheme, opts),
                                 {0, 20'000, 150'000});
        }
    }
    addCheckpointEntries(entries, "golden_stream/silcfm/2c",
                         configFor("golden_stream", "silcfm"), {20'000});

    std::string json = "{\n";
    for (size_t i = 0; i < entries.size(); ++i)
        json += entries[i] + (i + 1 < entries.size() ? ",\n" : "\n");
    json += "}\n";
    expectMatchesGolden(json, "golden_checkpoints.json");
}

class GoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenTrace, ResultJsonIsByteStable)
{
    const GoldenCase c = GetParam();
    expectMatchesGolden(runToJson(c.trace, c.scheme), goldenJsonName(c));
}

TEST_P(GoldenTrace, ReplayIsDeterministic)
{
    // The byte-stability claim rests on run-to-run determinism; prove
    // it directly so a flaky golden can be told apart from a real
    // behaviour change.
    const GoldenCase c = GetParam();
    EXPECT_EQ(runToJson(c.trace, c.scheme), runToJson(c.trace, c.scheme));
}

INSTANTIATE_TEST_SUITE_P(
    Traces, GoldenTrace,
    ::testing::Values(GoldenCase{"golden_stream", "silcfm"},
                      GoldenCase{"golden_hotset", "silcfm"},
                      GoldenCase{"golden_conflict", "silcfm"},
                      GoldenCase{"golden_stream", "dramcache"},
                      GoldenCase{"golden_hotset", "dramcache"},
                      GoldenCase{"golden_stream", "memcache"},
                      GoldenCase{"golden_hotset", "memcache"}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.trace) + "_" + info.param.scheme;
    });

class SampledGolden : public ::testing::TestWithParam<SampledCase>
{
};

TEST_P(SampledGolden, ResultJsonIsByteStable)
{
    const SampledCase c = GetParam();
    const sim::SimResult r = runSampled(c);

    // The case must still exercise what it is named for.
    ASSERT_NE(r.sampling, nullptr);
    const sample::SamplingReport &rep = *r.sampling;
    EXPECT_EQ(rep.checkpoints, c.instructions / kSampledPeriod);
    EXPECT_EQ(rep.windows, rep.checkpoints);
    EXPECT_EQ(rep.warm_instructions,
              c.check ? c.instructions
                      : (rep.checkpoints - 1) * kSampledPeriod);

    expectMatchesGolden(toJson(r), std::string(c.name) + ".json");
}

TEST_P(SampledGolden, RunIsDeterministic)
{
    const SampledCase c = GetParam();
    EXPECT_EQ(toJson(runSampled(c)), toJson(runSampled(c)));
}

INSTANTIATE_TEST_SUITE_P(
    Sampled, SampledGolden,
    ::testing::Values(
        // 9 checkpoints, all replayed; warming stops at the last one.
        SampledCase{"golden_sampled_nine", 90'000, false},
        // Warming runs past the last checkpoint to the full budget.
        SampledCase{"golden_sampled_checked", 95'000, true}),
    [](const ::testing::TestParamInfo<SampledCase> &info) {
        return std::string(info.param.name);
    });
