#include "sim/parallel.hh"

#include <cinttypes>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "policy/registry.hh"

namespace silc {
namespace sim {

unsigned
parallelThreadsFromEnv()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envThreadCount("SILC_THREADS", hw == 0 ? 1 : hw);
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads == 0 ? parallelThreadsFromEnv() : threads;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_cv_.wait(lock,
                          [this] { return stop_ || !tasks_.empty(); });
            // Stopping still drains: exit only once the queue is empty.
            if (tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

ParallelRunner::ParallelRunner(ExperimentOptions opts, unsigned threads)
    : opts_(opts), start_(std::chrono::steady_clock::now()),
      pool_(threads)
{
}

ParallelRunner::Job
ParallelRunner::submitJob(SystemConfig cfg, bool is_baseline)
{
    auto task = std::make_shared<std::packaged_task<SimResult()>>(
        [this, cfg = std::move(cfg), is_baseline] {
            logSetThreadTag(cfg.workload + "/" + cfg.scheme);
            System system(cfg);
            SimResult result = system.run();
            logSetThreadTag("");
            if (is_baseline)
                baseline_runs_.fetch_add(1, std::memory_order_relaxed);
            jobs_completed_.fetch_add(1, std::memory_order_relaxed);
            return result;
        });
    Job job = task->get_future().share();
    pool_.submit([task] { (*task)(); });
    return job;
}

ParallelRunner::Job
ParallelRunner::submit(const std::string &workload,
                       const std::string &scheme)
{
    const auto &reg = policy::SchemeRegistry::instance();
    if (reg.resolve(scheme).traits.baseline)
        return baseline(workload);
    return submitJob(makeConfig(workload, scheme, opts_), false);
}

ParallelRunner::Job
ParallelRunner::submitConfig(SystemConfig cfg)
{
    return submitJob(std::move(cfg), false);
}

ParallelRunner::Job
ParallelRunner::baseline(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(baseline_mutex_);
    auto it = baselines_.find(workload);
    if (it != baselines_.end())
        return it->second;
    Job job = submitJob(
        makeConfig(workload,
                   policy::SchemeRegistry::instance().baselineName(),
                   opts_),
        true);
    baselines_.emplace(workload, job);
    return job;
}

Tick
ParallelRunner::baselineTicks(const std::string &workload)
{
    return baseline(workload).get().ticks;
}

double
ParallelRunner::speedup(const SimResult &result)
{
    const Tick base = baselineTicks(result.workload);
    return static_cast<double>(base) / static_cast<double>(result.ticks);
}

double
ParallelRunner::elapsedSeconds() const
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
}

std::string
fixedDecimal(double v, int places)
{
    // CI perf gates parse this output with a fixed regex, so the
    // rendering must not follow the process locale the way printf("%f")
    // does (a decimal comma would break the parser).  Integer
    // formatting via to_string is locale-independent.
    if (!(v >= 0.0))
        v = 0.0;
    uint64_t scale = 1;
    for (int i = 0; i < places; ++i)
        scale *= 10;
    const double scaled = v * static_cast<double>(scale) + 0.5;
    const double limit = 9.0e18;
    const uint64_t n = scaled >= limit
        ? static_cast<uint64_t>(limit)
        : static_cast<uint64_t>(scaled);
    std::string s = std::to_string(n / scale);
    if (places > 0) {
        std::string frac = std::to_string(n % scale);
        s += '.';
        s.append(static_cast<size_t>(places) - frac.size(), '0');
        s += frac;
    }
    return s;
}

void
ParallelRunner::printFooter(std::FILE *out) const
{
    // Rate from the monotonic clock (start_ is steady_clock): wall
    // clock adjustments must never produce a negative or inflated
    // jobs/sec in the CI perf-smoke logs.
    const double secs = elapsedSeconds();
    const uint64_t jobs = jobsCompleted();
    const double rate =
        secs > 0.0 ? static_cast<double>(jobs) / secs : 0.0;
    std::fprintf(out,
                 "[parallel] %" PRIu64 " jobs in %ss (%s jobs/sec, "
                 "%u threads)\n",
                 jobs, fixedDecimal(secs, 2).c_str(),
                 fixedDecimal(rate, 1).c_str(), threads());
}

} // namespace sim
} // namespace silc
