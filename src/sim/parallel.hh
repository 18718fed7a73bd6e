/**
 * @file
 * Parallel experiment execution: a FIFO thread pool plus
 * ParallelRunner, the one runner the benches (through sim::Grid,
 * sim/grid.hh), examples and tests use.
 *
 * Every paper figure is a grid of independent (workload, scheme)
 * simulations; each sim::System is self-contained, so the grid is
 * embarrassingly parallel.  Benches submit all jobs up front and then
 * collect results in submission order, which keeps the printed tables
 * byte-identical to a sequential run regardless of thread count.  The
 * runner only runs jobs: results documents are written by
 * sim::ResultWriter (sim/result_writer.hh).
 *
 * Thread count comes from the SILC_THREADS environment variable
 * (default: hardware_concurrency; 1 preserves the sequential behavior).
 */

#ifndef SILC_SIM_PARALLEL_HH
#define SILC_SIM_PARALLEL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hh"

namespace silc {
namespace sim {

/** SILC_THREADS, or hardware_concurrency when unset (never 0). */
unsigned parallelThreadsFromEnv();

/**
 * Locale-stable fixed-point rendering of @p v with @p places decimals
 * (always a '.' separator).  For the stderr perf footers, which CI
 * parses with a fixed regex regardless of the runner's locale.
 * Negative and NaN inputs render as 0.
 */
std::string fixedDecimal(double v, int places);

/**
 * A fixed-width thread pool over one FIFO queue.
 *
 * Idle workers take tasks from the front of a single mutex-guarded
 * deque, so tasks start in submission order and a busy worker never
 * holds queued work back.  The tasks are coarse (whole simulations,
 * sampled-window replays, warming passes: at most a few thousand
 * submissions per second), so one lock is never contended enough to
 * matter.  Destruction drains every pending task before joining.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means parallelThreadsFromEnv(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Runs simulations on a ThreadPool and hands their results back through
 * futures.  A job's result is exactly what System(cfg).run() returns on
 * the calling thread.
 *
 * The no-NM baseline of each workload is resolved exactly once behind a
 * mutex-guarded future cache: the first requester submits the baseline
 * job, later requesters share the same future, so every speedup keeps a
 * shared denominator no matter which thread finishes first.
 *
 * Benches call speedup()/baselineTicks() only from the collecting
 * (main) thread; worker threads never block on futures, so the pool
 * cannot deadlock even with a single worker.
 */
class ParallelRunner
{
  public:
    /** A pending simulation result. */
    using Job = std::shared_future<SimResult>;

    /** @param threads worker count; 0 means parallelThreadsFromEnv(). */
    explicit ParallelRunner(ExperimentOptions opts, unsigned threads = 0);

    unsigned threads() const { return pool_.threads(); }

    /**
     * Submit one (workload, scheme) pair.  Baseline-scheme requests are
     * routed through the baseline cache so they are never run twice.
     */
    Job submit(const std::string &workload, const std::string &scheme);

    /** Submit a caller-tweaked config (capacity sweeps, ablations). */
    Job submitConfig(SystemConfig cfg);

    /**
     * The cached no-NM baseline run of @p workload; submitted on first
     * request.  Benches call this up front so the denominator runs
     * overlap with the scheme runs.
     */
    Job baseline(const std::string &workload);

    /** Execution ticks of the no-NM baseline (blocks until ready). */
    Tick baselineTicks(const std::string &workload);

    /** Speedup of @p result against its workload's no-NM baseline. */
    double speedup(const SimResult &result);

    /** Simulations finished so far (including baselines). */
    uint64_t jobsCompleted() const
    {
        return jobs_completed_.load(std::memory_order_relaxed);
    }

    /** Baseline simulations actually executed (for tests). */
    uint64_t baselineRuns() const
    {
        return baseline_runs_.load(std::memory_order_relaxed);
    }

    /** Wall-clock seconds since construction. */
    double elapsedSeconds() const;

    /**
     * Print "N jobs in S s (J jobs/sec, T threads)" to @p out.  Goes to
     * stderr by default so stdout tables stay byte-identical across
     * thread counts (the bench_smoke test diffs stdout).
     */
    void printFooter(std::FILE *out = stderr) const;

  private:
    Job submitJob(SystemConfig cfg, bool is_baseline);

    ExperimentOptions opts_;
    std::chrono::steady_clock::time_point start_;

    std::mutex baseline_mutex_;
    std::map<std::string, Job> baselines_;

    std::atomic<uint64_t> jobs_completed_{0};
    std::atomic<uint64_t> baseline_runs_{0};

    // Last member: destroyed first, so the pool drains and joins every
    // in-flight job before the counters and cache above go away.
    ThreadPool pool_;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_PARALLEL_HH
