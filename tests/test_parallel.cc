/**
 * @file
 * The parallel experiment layer: ThreadPool execution and FIFO order,
 * SILC_THREADS parsing, footer number formatting, and — the properties
 * the bench tables depend on — bit-identical results between
 * sequential and parallel runs and a baseline cache that computes each
 * workload's no-NM denominator exactly once no matter how many threads
 * request it.  Also sim::Grid, the benches' front end: the document it
 * records, full or sampled, and the arguments it rejects.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "policy/registry.hh"
#include "sample/sampling.hh"
#include "sim/grid.hh"
#include "sim/parallel.hh"
#include "sim/result_writer.hh"

using namespace silc;
using namespace silc::sim;

namespace {

/** Tiny but non-trivial scale so a full grid stays fast. */
ExperimentOptions
tinyOptions()
{
    ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = 20'000;
    return opts;
}

/** The tiny scale of the Grid tests, set through the bench knobs. */
struct TinyGridEnv
{
    TinyGridEnv()
    {
        setenv("SILC_CORES", "2", 1);
        setenv("SILC_INSTR", "30000", 1);
        setenv("SILC_SAMPLE_PERIOD", "10000", 1);
    }
    ~TinyGridEnv()
    {
        for (const char *knob : {"SILC_CORES", "SILC_INSTR",
                                 "SILC_SAMPLE_PERIOD"})
            unsetenv(knob);
    }
    TinyGridEnv(const TinyGridEnv &) = delete;
    TinyGridEnv &operator=(const TinyGridEnv &) = delete;
};

} // namespace

TEST(ThreadPoolTest, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    // Destruction drains the queue before joining.
    {
        ThreadPool inner(2);
        for (int i = 0; i < 100; ++i)
            inner.submit([&count] { ++count; });
    }
    while (count.load() < 200)
        std::this_thread::yield();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, IdleWorkerRunsQueuedTasksInSubmissionOrder)
{
    // Both workers of a 2-wide pool park on blockers while six tasks
    // queue behind them.  Releasing one blocker frees one worker, which
    // must run all six in submission order while the other worker stays
    // blocked: a busy worker holds no queued work back.
    std::atomic<int> parked{0};
    std::atomic<bool> release[2] = {false, false};
    std::mutex order_mutex;
    std::vector<int> order;
    std::atomic<int> ran{0};
    ThreadPool pool(2); // last: joins its workers before the state dies
    for (int b = 0; b < 2; ++b) {
        pool.submit([&, b] {
            ++parked;
            while (!release[b].load())
                std::this_thread::yield();
        });
    }
    while (parked.load() < 2)
        std::this_thread::yield();

    for (int i = 0; i < 6; ++i) {
        pool.submit([&, i] {
            {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(i);
            }
            ++ran;
        });
    }
    release[0] = true;
    while (ran.load() < 6)
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lock(order_mutex);
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    }
    release[1] = true;
}

TEST(ParallelThreadsTest, EnvKnobParsing)
{
    ASSERT_EQ(setenv("SILC_THREADS", "3", 1), 0);
    EXPECT_EQ(parallelThreadsFromEnv(), 3u);
    ASSERT_EQ(setenv("SILC_THREADS", "1", 1), 0);
    EXPECT_EQ(parallelThreadsFromEnv(), 1u);
    ASSERT_EQ(unsetenv("SILC_THREADS"), 0);
    EXPECT_GE(parallelThreadsFromEnv(), 1u);
}

TEST(ParallelRunnerTest, BitIdenticalToSequentialRunner)
{
    const ExperimentOptions opts = tinyOptions();
    const std::vector<std::string> workloads = {"mcf", "milc", "lbm"};
    const std::vector<std::string> kinds = {"silcfm", "cam"};

    ASSERT_EQ(setenv("SILC_THREADS", "4", 1), 0);
    ParallelRunner par(opts);  // picks up SILC_THREADS
    ASSERT_EQ(unsetenv("SILC_THREADS"), 0);
    ASSERT_EQ(par.threads(), 4u);

    std::vector<std::vector<ParallelRunner::Job>> jobs(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w)
        for (const std::string &kind : kinds)
            jobs[w].push_back(par.submit(workloads[w], kind));

    // The sequential reference: each run on this thread.
    const auto sequential = [&opts](const std::string &workload,
                                    const std::string &scheme) {
        return System(makeConfig(workload, scheme, opts)).run();
    };
    for (size_t w = 0; w < workloads.size(); ++w) {
        const Tick base =
            sequential(workloads[w],
                       policy::SchemeRegistry::instance().baselineName())
                .ticks;
        EXPECT_EQ(par.baselineTicks(workloads[w]), base) << workloads[w];
        for (size_t k = 0; k < kinds.size(); ++k) {
            const SimResult s = sequential(workloads[w], kinds[k]);
            const SimResult p = jobs[w][k].get();
            EXPECT_EQ(s.ticks, p.ticks)
                << workloads[w] << "/" << kinds[k];
            EXPECT_EQ(s.instructions, p.instructions);
            EXPECT_EQ(s.llc_misses, p.llc_misses);
            EXPECT_EQ(s.nm_total_bytes, p.nm_total_bytes);
            EXPECT_EQ(s.fm_total_bytes, p.fm_total_bytes);
            EXPECT_EQ(s.migration_bytes, p.migration_bytes);
            EXPECT_DOUBLE_EQ(static_cast<double>(base) /
                                 static_cast<double>(s.ticks),
                             par.speedup(p));
        }
    }
    EXPECT_EQ(par.jobsCompleted(),
              workloads.size() * kinds.size() + workloads.size());
}

TEST(ParallelRunnerTest, BaselineComputedExactlyOnce)
{
    ParallelRunner runner(tinyOptions(), 4);

    // Hammer the cache from many external threads at once: everyone
    // must see the same ticks and only one baseline simulation may run.
    constexpr int kRequesters = 8;
    std::vector<Tick> ticks(kRequesters, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kRequesters; ++i) {
        threads.emplace_back([&runner, &ticks, i] {
            ticks[static_cast<size_t>(i)] = runner.baselineTicks("mcf");
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(runner.baselineRuns(), 1u);
    for (int i = 1; i < kRequesters; ++i)
        EXPECT_EQ(ticks[static_cast<size_t>(i)], ticks[0]);

    // FmOnly submissions reuse the cache instead of re-running.
    ParallelRunner::Job job = runner.submit("mcf", "fmonly");
    EXPECT_EQ(job.get().ticks, ticks[0]);
    EXPECT_EQ(runner.baselineRuns(), 1u);
}

TEST(ParallelRunnerTest, LogThreadTagRoundTrips)
{
    logSetThreadTag("unit/test");
    EXPECT_EQ(logThreadTag(), "unit/test");
    logSetThreadTag("");
    EXPECT_EQ(logThreadTag(), "");
}

// ---- Grid ----------------------------------------------------------------

TEST(Grid, DocumentIsTheSubmittedRunsInOrder)
{
    const std::string path = ::testing::TempDir() + "silc_grid.json";
    const TinyGridEnv env;
    const sample::SamplingConfig scfg = sample::SamplingConfig::fromEnv();
    for (const bool sampled : {false, true}) {
        SCOPED_TRACE(sampled ? "--sample" : "full detail");
        ExperimentOptions opts = ExperimentOptions::fromEnv();
        // --json records each full-detail run's time series.
        opts.telemetry = !sampled;
        SystemConfig variant = makeConfig("lbm", "silcfm", opts);
        variant.silc.associativity = 1;
        {
            std::vector<const char *> argv = {"bench", "--json",
                                              path.c_str()};
            if (sampled)
                argv.push_back("--sample");
            Grid grid(static_cast<int>(argv.size()),
                      const_cast<char **>(argv.data()));
            grid.baseline("lbm");
            const Grid::Cell silc = grid.submit("lbm", "silcfm");
            grid.submit("lbm", "hma"); // not checkpointable: full detail
            grid.submit(variant);
            // Read out of order; the document keeps submission order.
            EXPECT_GT(grid.speedup(silc.get()), 0.0);
        }

        // The same runs one after another on this thread: for
        // --sample, what fig7 and fig8 did before they ran on a Grid.
        ResultWriter expected("unused.json", opts);
        for (const SystemConfig &cfg :
             {makeConfig("lbm", "fmonly", opts),
              makeConfig("lbm", "silcfm", opts),
              makeConfig("lbm", "hma", opts), variant}) {
            expected.add(sampled ? sample::runMaybeSampled(cfg, scfg)
                                 : System(cfg).run());
        }
        std::ostringstream os;
        expected.serialize(os);
        std::ifstream in(path);
        std::stringstream doc;
        doc << in.rdbuf();
        EXPECT_EQ(doc.str(), os.str());
        EXPECT_EQ(os.str().find("\"sampling\"") != std::string::npos,
                  sampled);
        EXPECT_EQ(os.str().find("\"telemetry\"") != std::string::npos,
                  !sampled);
    }
    std::remove(path.c_str());
}

TEST(GridDeath, RejectsArgumentsItDoesNotTake)
{
    const TinyGridEnv env;
    const char *stale[] = {"bench", "policy=dramcache"};
    EXPECT_DEATH(Grid(2, const_cast<char **>(stale)),
                 "unknown argument 'policy=dramcache'");
    const char *flag[] = {"bench", "--workload", "lbm"};
    EXPECT_DEATH(Grid(3, const_cast<char **>(flag)),
                 "unknown argument '--workload'");
    // A bench whose output sampling does not estimate refuses --sample.
    const char *sample[] = {"bench", "--sample"};
    EXPECT_DEATH(Grid(2, const_cast<char **>(sample), "energy"),
                 "--sample: .*energy");
}
