/**
 * @file
 * One measured pass of a perfbench workload (see README.md).
 *
 * Builds the workload's simulations through the simulator's public entry
 * points (sim::System, sim::ParallelRunner, sample::runMaybeSampled),
 * times them, and prints one JSON object on stdout.  run.py runs every
 * pass in a child process of its own, so a crashing simulation costs
 * one pass instead of the whole benchmark, and aggregates the passes.
 *
 *   perfbench_pass --workload <name> --seed <sim seed> --threads <n>
 *                  --mode setup|plain|traced|reference [--cpu <n>]
 *
 * setup      time until the first simulated cycle in a fresh process:
 *            building the workload's config and System (and, for the
 *            grid, the ParallelRunner its jobs run on).
 * plain      the end-to-end measurement: the timed run, per-job seconds,
 *            the result digest and the peak RSS.
 * traced     the same simulations with host time split by layer.  The
 *            sequential loop is re-driven from this file over timed
 *            trace sources and a timed memory port, so it must reproduce
 *            the plain pass's ticks and LLC misses (the "check" field).
 * reference  sampled only: the full-detail run whose IPC the sampled
 *            estimate is compared against.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "policy/registry.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"
#include "sim/result_writer.hh"
#include "sim/system.hh"
#include "telemetry/json.hh"
#include "trace/profiles.hh"

using namespace silc;

namespace {

using Clock = std::chrono::steady_clock;

int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---- Workload definitions ----------------------------------------------
//
// Sizes give each pass a few host seconds on a 4-CPU host (README.md
// lists the measured times); run.py repeats passes for --seconds.

constexpr uint32_t kDetailCores = 8;
/** detail-bw: bandwidth-bound lbm, DRAM-dominated. */
constexpr uint64_t kBwInstr = 2'000'000;
/** detail-hit: low-MPKI dealii, core/cache-dominated; sized to a
 *  detail-bw-like pass time. */
constexpr uint64_t kHitInstr = 6'000'000;

constexpr uint32_t kGridCores = 4;
constexpr uint64_t kGridInstr = 100'000;

constexpr uint32_t kSampledCores = 4;
constexpr uint64_t kSampledInstr = 10'000'000;

/** The detailed single-run machine: silcfm at the paper's channel
 *  counts, as in the fig8_bandwidth --perf fixture. */
sim::SystemConfig
detailConfig(const std::string &workload, uint64_t instr, uint64_t seed)
{
    sim::ExperimentOptions opts;
    opts.cores = kDetailCores;
    opts.instructions_per_core = instr;
    opts.seed = seed;
    sim::SystemConfig cfg = sim::makeConfig(workload, "silcfm", opts);
    cfg.nm_timing = dram::hbm2Params();
    cfg.fm_timing = dram::ddr3Params();
    cfg.fm_timing.channels = 4;
    return cfg;
}

sim::ExperimentOptions
gridOptions(uint64_t seed)
{
    sim::ExperimentOptions opts;
    opts.cores = kGridCores;
    opts.instructions_per_core = kGridInstr;
    opts.seed = seed;
    return opts;
}

/** One cell of the fig7-shaped grid; baseline cells go through the
 *  runner's baseline cache, as in fig7_comparison. */
struct GridCell
{
    std::string workload;
    std::string scheme;
    bool baseline = false;
};

std::vector<GridCell>
gridCells()
{
    const policy::SchemeRegistry &reg = policy::SchemeRegistry::instance();
    std::vector<GridCell> cells;
    for (const std::string &w : trace::profileNames()) {
        cells.push_back({w, reg.baselineName(), true});
        for (const std::string &s : reg.matrixNames())
            cells.push_back({w, s, false});
    }
    return cells;
}

sim::SystemConfig
sampledConfig(uint64_t seed)
{
    sim::ExperimentOptions opts;
    opts.cores = kSampledCores;
    opts.instructions_per_core = kSampledInstr;
    opts.seed = seed;
    return sim::makeConfig("mcf", "silcfm", opts);
}

sample::SamplingConfig
samplingConfig(unsigned threads)
{
    sample::SamplingConfig scfg;
    scfg.threads = threads;
    return scfg;
}

// ---- Digests -----------------------------------------------------------

/** FNV-1a, 64-bit. */
class Digest
{
  public:
    void
    add(std::string_view s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 1099511628211ULL;
        }
    }

    void
    addU64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ULL;
        }
    }

    void addDouble(double v) { addU64(std::bit_cast<uint64_t>(v)); }

    /** The silc.results.v1 rendering of @p r, so the digest covers
     *  exactly the bytes the results document carries. */
    void
    addResult(const sim::SimResult &r)
    {
        std::ostringstream os;
        sim::writeResultJson(os, r);
        add(os.str());
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 1469598103934665603ULL;
};

// ---- Output ------------------------------------------------------------

/** A flat JSON object, rendered in insertion order. */
class JsonObject
{
  public:
    void
    num(const std::string &key, double v)
    {
        fields_.emplace_back(key, telemetry::jsonDouble(v));
    }

    void
    str(const std::string &key, const std::string &v)
    {
        fields_.emplace_back(key, telemetry::jsonString(v));
    }

    void
    arr(const std::string &key, const std::vector<double> &vs)
    {
        std::string s = "[";
        for (size_t i = 0; i < vs.size(); ++i) {
            if (i > 0)
                s += ',';
            s += telemetry::jsonDouble(vs[i]);
        }
        fields_.emplace_back(key, s + "]");
    }

    void
    obj(const std::string &key, const JsonObject &o)
    {
        fields_.emplace_back(key, o.render());
    }

    std::string
    render() const
    {
        std::string s = "{";
        for (size_t i = 0; i < fields_.size(); ++i) {
            if (i > 0)
                s += ',';
            s += telemetry::jsonString(fields_[i].first) + ":" +
                fields_[i].second;
        }
        return s + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Peak RSS of this process image: VmHWM from /proc/self/status.
 * getrusage's ru_maxrss is the fallback only, because Linux carries it
 * across execve, so it reports the spawning interpreter's peak whenever
 * that is the larger one.
 */
double
peakRssMib()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, f))
            found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
        std::fclose(f);
        if (found)
            return static_cast<double>(kib) / 1024.0;
    }
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Fields every pass reports. */
void
describeHost(JsonObject &out, unsigned threads)
{
    out.num("host_cpus", std::thread::hardware_concurrency());
    out.num("threads", threads);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    out.str("compiler", PERFBENCH_COMPILER);
    out.num("lto", PERFBENCH_LTO);
}

// ---- Plain passes ------------------------------------------------------

/** What a plain pass measures. */
struct PlainPass
{
    double wall_s = 0.0;
    /** Setup of the measured run plus wall_s (trace overhead base). */
    double pass_wall_s = 0.0;
    std::vector<double> job_s;
    uint64_t instructions = 0;
    uint64_t sim_ticks = 0;
    uint64_t failed_jobs = 0;
    Digest digest; ///< every SimResult, silc.results.v1 bytes
    Digest check;  ///< what the traced pass must reproduce
    double ipc = 0.0; ///< detail and sampled only
};

PlainPass
plainDetail(const sim::SystemConfig &cfg)
{
    PlainPass p;
    const auto t0 = Clock::now();
    sim::System sys(cfg);
    const auto t1 = Clock::now();
    const sim::SimResult r = sys.run();
    const auto t2 = Clock::now();
    p.wall_s = secondsBetween(t1, t2);
    p.pass_wall_s = secondsBetween(t0, t2);
    p.job_s.push_back(p.wall_s);
    p.instructions = r.instructions;
    p.sim_ticks = r.ticks;
    p.failed_jobs = r.hit_tick_limit ? 1 : 0;
    p.digest.addResult(r);
    p.check.addU64(r.ticks);
    p.check.addU64(r.llc_misses);
    p.ipc = r.ipc;
    return p;
}

/**
 * The grid through ParallelRunner as a closed loop of `threads` jobs in
 * flight: every job starts on an idle worker as soon as it is
 * submitted, so submit-to-ready time is the job's own host time (plus
 * at most one poll interval), not time spent queued behind others.
 */
PlainPass
plainGrid(uint64_t seed, unsigned threads)
{
    PlainPass p;
    const sim::ExperimentOptions opts = gridOptions(seed);
    const std::vector<GridCell> cells = gridCells();

    struct InFlight
    {
        size_t cell;
        sim::ParallelRunner::Job job;
        Clock::time_point submitted;
    };
    std::vector<sim::SimResult> results(cells.size());
    p.job_s.assign(cells.size(), 0.0);

    const auto t0 = Clock::now();
    {
        sim::ParallelRunner runner(opts, threads);
        std::vector<InFlight> inflight;
        size_t next = 0;
        while (next < cells.size() || !inflight.empty()) {
            while (inflight.size() < threads && next < cells.size()) {
                const GridCell &c = cells[next];
                const auto now = Clock::now();
                inflight.push_back({next,
                                    c.baseline
                                        ? runner.baseline(c.workload)
                                        : runner.submit(c.workload, c.scheme),
                                    now});
                ++next;
            }
            inflight.front().job.wait_for(std::chrono::microseconds(100));
            for (auto it = inflight.begin(); it != inflight.end();) {
                if (it->job.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++it;
                    continue;
                }
                p.job_s[it->cell] = secondsBetween(it->submitted,
                                                   Clock::now());
                results[it->cell] = it->job.get();
                it = inflight.erase(it);
            }
        }
    }
    p.wall_s = secondsBetween(t0, Clock::now());
    p.pass_wall_s = p.wall_s;

    for (const sim::SimResult &r : results) {
        p.instructions += r.instructions;
        p.sim_ticks += r.ticks;
        p.failed_jobs += r.hit_tick_limit ? 1 : 0;
        p.digest.addResult(r);
        p.check.addU64(r.ticks);
        p.check.addU64(r.llc_misses);
    }
    return p;
}

PlainPass
plainSampled(uint64_t seed, unsigned threads)
{
    PlainPass p;
    const sim::SystemConfig cfg = sampledConfig(seed);
    const auto t0 = Clock::now();
    const sim::SimResult r =
        sample::runMaybeSampled(cfg, samplingConfig(threads));
    p.wall_s = secondsBetween(t0, Clock::now());
    p.pass_wall_s = p.wall_s;
    p.job_s.push_back(p.wall_s);
    p.instructions = r.instructions;
    p.sim_ticks = r.ticks;
    const uint32_t windows = r.sampling ? r.sampling->windows : 0;
    p.failed_jobs = r.hit_tick_limit || windows == 0 ? 1 : 0;
    p.digest.addResult(r);
    p.check.addDouble(r.ipc);
    p.check.addDouble(r.mpki);
    p.check.addU64(windows);
    p.ipc = r.ipc;
    return p;
}

void
printPlain(const std::string &workload, unsigned threads,
           const PlainPass &p)
{
    JsonObject out;
    out.str("mode", "plain");
    out.str("workload", workload);
    describeHost(out, threads);
    out.num("wall_s", p.wall_s);
    out.num("pass_wall_s", p.pass_wall_s);
    out.num("jobs", static_cast<double>(p.job_s.size()));
    out.arr("job_s", p.job_s);
    out.num("instructions", static_cast<double>(p.instructions));
    out.num("sim_ticks", static_cast<double>(p.sim_ticks));
    out.num("failed_jobs", static_cast<double>(p.failed_jobs));
    out.num("ipc", p.ipc);
    out.str("digest", p.digest.hex());
    out.str("check", p.check.hex());
    out.num("peak_rss_mib", peakRssMib());
    std::printf("%s\n", out.render().c_str());
}

// ---- Traced passes -----------------------------------------------------

/** Host time (ns) and work counts per layer. */
struct Layers
{
    int64_t setup_ns = 0;
    int64_t loop_ns = 0; ///< the sequential loop, first cycle to done
    int64_t trace_ns = 0;
    int64_t cores_ns = 0; ///< Core::tick of all cores, port and trace in
    int64_t hier_ns = 0;
    int64_t events_ns = 0;
    int64_t nm_scan_ns = 0;
    int64_t fm_scan_ns = 0;
    int64_t policy_ns = 0;
    uint64_t trace_instrs = 0;
    uint64_t hier_accesses = 0;
    uint64_t hier_rejects = 0;
    uint64_t events_executed = 0;
    uint64_t nm_scans = 0;
    uint64_t fm_scans = 0;
    uint64_t cycles = 0;
    uint64_t skipped_cycles = 0;

    void
    add(const Layers &o)
    {
        setup_ns += o.setup_ns;
        loop_ns += o.loop_ns;
        trace_ns += o.trace_ns;
        cores_ns += o.cores_ns;
        hier_ns += o.hier_ns;
        events_ns += o.events_ns;
        nm_scan_ns += o.nm_scan_ns;
        fm_scan_ns += o.fm_scan_ns;
        policy_ns += o.policy_ns;
        trace_instrs += o.trace_instrs;
        hier_accesses += o.hier_accesses;
        hier_rejects += o.hier_rejects;
        events_executed += o.events_executed;
        nm_scans += o.nm_scans;
        fm_scans += o.fm_scans;
        cycles += o.cycles;
        skipped_cycles += o.skipped_cycles;
    }
};

/** Simulated-model totals; sums, so grid jobs aggregate by adding. */
struct ModelCounts
{
    double instructions = 0.0;
    double core_ticks = 0.0; ///< ticks x cores
    double ticks = 0.0;
    double llc_misses = 0.0;
    double l1d_hits = 0.0;
    double l1d_accesses = 0.0;
    double l2_hits = 0.0;
    double l2_accesses = 0.0;
    double fm_row_hits = 0.0;
    double fm_row_accesses = 0.0;
    double nm_busy_ticks = 0.0;
    double fm_busy_ticks = 0.0;
    double miss_latency_sum = 0.0;
    double misses_completed = 0.0;
    double nm_demand_bytes = 0.0;
    double fm_demand_bytes = 0.0;

    void
    add(const ModelCounts &o)
    {
        instructions += o.instructions;
        core_ticks += o.core_ticks;
        ticks += o.ticks;
        llc_misses += o.llc_misses;
        l1d_hits += o.l1d_hits;
        l1d_accesses += o.l1d_accesses;
        l2_hits += o.l2_hits;
        l2_accesses += o.l2_accesses;
        fm_row_hits += o.fm_row_hits;
        fm_row_accesses += o.fm_row_accesses;
        nm_busy_ticks += o.nm_busy_ticks;
        fm_busy_ticks += o.fm_busy_ticks;
        miss_latency_sum += o.miss_latency_sum;
        misses_completed += o.misses_completed;
        nm_demand_bytes += o.nm_demand_bytes;
        fm_demand_bytes += o.fm_demand_bytes;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Cache hit counts of @p sys's hierarchy into @p m. */
void
countCaches(sim::System &sys, uint32_t cores, ModelCounts &m)
{
    sim::MemoryHierarchy &h = sys.hierarchy();
    for (uint32_t c = 0; c < cores; ++c) {
        const cache::Cache &l1 = h.l1d(c);
        m.l1d_hits += static_cast<double>(l1.hits());
        m.l1d_accesses += static_cast<double>(l1.hits() + l1.misses());
    }
    m.l2_hits += static_cast<double>(h.l2().hits());
    m.l2_accesses +=
        static_cast<double>(h.l2().hits() + h.l2().misses());
}

/**
 * A TraceSource that generates in timed batches.  The synthetic stream
 * does not depend on simulation state, so reading ahead leaves the
 * consumed stream, and the simulation, unchanged; batching keeps the
 * clock reads to two per kBatch instructions.
 */
class TimedTrace : public trace::TraceSource
{
  public:
    TimedTrace(const trace::WorkloadProfile &profile, uint64_t seed,
               Layers &layers)
        : gen_(profile, seed), layers_(layers)
    {
    }

    trace::TraceInstruction
    next() override
    {
        if (pos_ == kBatch)
            refill();
        return buf_[pos_++];
    }

  private:
    static constexpr size_t kBatch = 256;

    void
    refill()
    {
        const auto t0 = Clock::now();
        for (auto &ins : buf_)
            ins = gen_.next();
        layers_.trace_ns += nsBetween(t0, Clock::now());
        layers_.trace_instrs += kBatch;
        pos_ = 0;
    }

    trace::SyntheticGenerator gen_;
    Layers &layers_;
    std::array<trace::TraceInstruction, kBatch> buf_{};
    size_t pos_ = kBatch;
};

/** The hierarchy's MemoryPort, timed per access.  A false return is an
 *  MSHR-full reject the core retries next cycle. */
class TimedPort : public cpu::MemoryPort
{
  public:
    TimedPort(sim::MemoryHierarchy &hier, Layers &layers)
        : hier_(hier), layers_(layers)
    {
    }

    bool
    access(CoreId core, Addr vaddr, Addr pc, bool is_write,
           std::function<void(Tick)> done, Tick now) override
    {
        const auto t0 = Clock::now();
        const bool ok =
            hier_.access(core, vaddr, pc, is_write, std::move(done), now);
        layers_.hier_ns += nsBetween(t0, Clock::now());
        ++layers_.hier_accesses;
        if (!ok)
            ++layers_.hier_rejects;
        return ok;
    }

  private:
    sim::MemoryHierarchy &hier_;
    Layers &layers_;
};

/** One traced simulation. */
struct TracedJob
{
    Layers layers;
    ModelCounts model;
    Tick ticks = 0;
    uint64_t llc_misses = 0;
    bool all_done = false;
};

/**
 * Build @p cfg's System and drive the sequential cycle loop of
 * System::runToBudget from here, with this file's cores over timed
 * trace sources and a timed port, and a span around each layer call.
 * Device and policy ticks are timed only on cycles where they can act
 * (nextWakeTick() <= cycle); the other calls are no-ops and stay
 * untimed to keep the overhead down.  The per-core trace seed is the
 * one System::System uses, so the run must match System::run exactly.
 */
TracedJob
runTraced(const sim::SystemConfig &cfg)
{
    TracedJob job;
    Layers &L = job.layers;

    const auto t_setup = Clock::now();
    sim::System sys(cfg);
    L.setup_ns = nsBetween(t_setup, Clock::now());

    const trace::WorkloadProfile &profile = trace::findProfile(cfg.workload);
    TimedPort port(sys.hierarchy(), L);
    cpu::CoreParams params = cfg.core_params;
    params.instruction_budget = cfg.instructions_per_core;
    std::vector<std::unique_ptr<TimedTrace>> traces;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    for (uint32_t c = 0; c < cfg.cores; ++c) {
        traces.push_back(std::make_unique<TimedTrace>(
            profile, cfg.seed * 7919 + c * 104729 + 13, L));
        cores.push_back(std::make_unique<cpu::Core>(c, params,
                                                    *traces.back(), port));
    }

    EventQueue &events = sys.events();
    dram::DramSystem *nm = sys.nm();
    dram::DramSystem &fm = sys.fm();
    policy::FlatMemoryPolicy &policy = sys.policyRef();
    const uint64_t executed0 = events.executed();

    const auto t_loop = Clock::now();
    Tick cycle = 0;
    bool all_done = false;
    while (cycle < cfg.max_ticks) {
        if (events.nextEventTick() <= cycle) {
            const auto t0 = Clock::now();
            events.runDue(cycle);
            L.events_ns += nsBetween(t0, Clock::now());
        } else {
            events.runDue(cycle);
        }

        all_done = true;
        const auto t0 = Clock::now();
        for (auto &core : cores) {
            core->tick(cycle);
            all_done &= core->done();
        }
        L.cores_ns += nsBetween(t0, Clock::now());

        if (nm != nullptr) {
            if (nm->nextWakeTick() <= cycle) {
                const auto t1 = Clock::now();
                nm->tick(cycle);
                L.nm_scan_ns += nsBetween(t1, Clock::now());
                ++L.nm_scans;
            } else {
                nm->tick(cycle);
            }
        }
        if (fm.nextWakeTick() <= cycle) {
            const auto t1 = Clock::now();
            fm.tick(cycle);
            L.fm_scan_ns += nsBetween(t1, Clock::now());
            ++L.fm_scans;
        } else {
            fm.tick(cycle);
        }
        if (policy.nextWakeTick() <= cycle) {
            const auto t1 = Clock::now();
            policy.tick(cycle);
            L.policy_ns += nsBetween(t1, Clock::now());
        } else {
            policy.tick(cycle);
        }
        if (all_done)
            break;
        ++cycle;

        // Fast-forward over cycles in which every live core is stalled,
        // exactly as System::runToBudget does.
        Tick wake = kTickNever;
        bool skippable = true;
        for (const auto &core : cores) {
            if (core->done())
                continue;
            const Tick su = core->stallUntil();
            if (su <= cycle) {
                skippable = false;
                break;
            }
            wake = std::min(wake, su);
        }
        if (!skippable)
            continue;
        wake = std::min(wake, events.nextEventTick());
        if (nm != nullptr)
            wake = std::min(wake, nm->nextWakeTick());
        wake = std::min(wake, fm.nextWakeTick());
        wake = std::min(wake, policy.nextWakeTick());
        wake = std::min(wake, cfg.max_ticks);
        if (wake <= cycle)
            continue;
        for (auto &core : cores) {
            if (!core->done())
                core->addStalledCycles(wake - cycle);
        }
        L.skipped_cycles += wake - cycle;
        cycle = wake;
    }
    L.loop_ns = nsBetween(t_loop, Clock::now());
    L.cycles = cycle + 1;
    L.events_executed = events.executed() - executed0;

    Tick finish = 0;
    for (const auto &core : cores)
        finish = std::max(finish, core->finishTick());
    job.all_done = all_done;
    job.ticks = all_done ? std::max<Tick>(finish, 1) : cfg.max_ticks;
    job.llc_misses = sys.hierarchy().llcMisses();

    ModelCounts &m = job.model;
    const double ticks = static_cast<double>(job.ticks);
    m.instructions = static_cast<double>(cfg.instructions_per_core) *
        cfg.cores;
    m.ticks = ticks;
    m.core_ticks = ticks * cfg.cores;
    m.llc_misses = static_cast<double>(job.llc_misses);
    countCaches(sys, cfg.cores, m);
    m.fm_row_hits = static_cast<double>(fm.rowHits());
    m.fm_row_accesses = static_cast<double>(fm.rowHits() + fm.rowMisses());
    m.fm_busy_ticks = fm.busUtilization(job.ticks) * ticks;
    m.fm_demand_bytes = static_cast<double>(fm.demandBytes());
    if (nm != nullptr) {
        m.nm_busy_ticks = nm->busUtilization(job.ticks) * ticks;
        m.nm_demand_bytes = static_cast<double>(nm->demandBytes());
    }
    m.miss_latency_sum = sys.hierarchy().missLatencySum();
    m.misses_completed =
        static_cast<double>(sys.hierarchy().missesCompleted());
    return job;
}

/** Sampling-phase host times of a traced sampled pass. */
struct SampleLayers
{
    double warm_s = 0.0;
    double ckpt_s = 0.0;
    double replay_s = 0.0;
    double replay_busy_s = 0.0;
    uint64_t warm_instrs = 0;
    uint64_t windows = 0;
};

/** What a traced pass reports. */
struct TracedPass
{
    Layers layers;
    SampleLayers sample;
    ModelCounts model;
    /** Host seconds the layer split must account for. */
    double wall_s = 0.0;
    /** Elapsed seconds of the traced pass (trace overhead numerator). */
    double pass_wall_s = 0.0;
    /** Busy share of the pool threads (grid jobs, sampled replays). */
    double busy_frac = 0.0;
    uint64_t jobs = 0;
    uint64_t failed_jobs = 0;
    Digest check;
};

TracedPass
tracedDetail(const sim::SystemConfig &cfg)
{
    TracedPass p;
    const TracedJob job = runTraced(cfg);
    p.layers = job.layers;
    p.model = job.model;
    p.wall_s = 1e-9 * static_cast<double>(job.layers.setup_ns +
                                          job.layers.loop_ns);
    p.pass_wall_s = p.wall_s;
    p.busy_frac = 1.0;
    p.jobs = 1;
    p.failed_jobs = job.all_done ? 0 : 1;
    p.check.addU64(job.ticks);
    p.check.addU64(job.llc_misses);
    return p;
}

/**
 * The grid's cells on a ThreadPool of the plain pass's width, each
 * through runTraced.  Layer times sum over jobs, so the split accounts
 * for thread-seconds of job time, and busy_frac says how much of
 * wall x threads that was.
 */
TracedPass
tracedGrid(uint64_t seed, unsigned threads)
{
    TracedPass p;
    const sim::ExperimentOptions opts = gridOptions(seed);
    const std::vector<GridCell> cells = gridCells();
    std::vector<TracedJob> jobs(cells.size());
    std::vector<double> job_s(cells.size(), 0.0);

    const auto t0 = Clock::now();
    {
        sim::ThreadPool pool(threads);
        for (size_t i = 0; i < cells.size(); ++i) {
            pool.submit([&, i] {
                const auto a = Clock::now();
                jobs[i] = runTraced(sim::makeConfig(cells[i].workload,
                                                    cells[i].scheme, opts));
                job_s[i] = secondsBetween(a, Clock::now());
            });
        }
    } // joins after draining every job
    const double wall = secondsBetween(t0, Clock::now());

    double busy = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        p.layers.add(jobs[i].layers);
        p.model.add(jobs[i].model);
        p.failed_jobs += jobs[i].all_done ? 0 : 1;
        p.check.addU64(jobs[i].ticks);
        p.check.addU64(jobs[i].llc_misses);
        busy += job_s[i];
    }
    p.wall_s = busy;
    p.pass_wall_s = wall;
    p.busy_frac = busy / (wall * threads);
    p.jobs = cells.size();
    return p;
}

/** One replayed window of a traced sampled pass. */
struct WindowOut
{
    double ipc = 0.0;
    double mpki = 0.0;
    double seconds = 0.0;
    bool ok = false;
    ModelCounts model;
};

/**
 * The sampled run's phases driven from here through the public
 * sampling hooks (setFunctionalMode / runToBudget / capture / restore),
 * with the controller's arithmetic, so the window means must equal
 * runMaybeSampled's bit for bit.
 */
TracedPass
tracedSampled(uint64_t seed, unsigned threads)
{
    TracedPass p;
    const sim::SystemConfig cfg = sampledConfig(seed);
    const sample::SamplingConfig scfg = samplingConfig(threads);
    SampleLayers &S = p.sample;

    const auto t_setup = Clock::now();
    sim::System warm(cfg);
    const auto t_warm = Clock::now();
    p.layers.setup_ns = nsBetween(t_setup, t_warm);
    warm.setFunctionalMode(true);

    const uint64_t n_ckpt =
        std::max<uint64_t>(1, cfg.instructions_per_core / scfg.period);
    std::vector<sample::Checkpoint> ckpts;
    ckpts.reserve(n_ckpt);
    for (uint64_t k = 0; k < n_ckpt; ++k) {
        warm.setPerCoreBudget(k * scfg.period);
        const auto a = Clock::now();
        const bool ok = warm.runToBudget();
        const auto b = Clock::now();
        ckpts.push_back(sample::capture(warm, k * scfg.period));
        S.warm_s += secondsBetween(a, b);
        S.ckpt_s += secondsBetween(b, Clock::now());
        if (!ok)
            ++p.failed_jobs;
    }
    S.warm_instrs = (n_ckpt - 1) * scfg.period * cfg.cores;
    countCaches(warm, cfg.cores, p.model);

    std::vector<WindowOut> outs(ckpts.size());
    const auto t_replay = Clock::now();
    {
        sim::ThreadPool pool(threads);
        for (size_t i = 0; i < ckpts.size(); ++i) {
            pool.submit([&, i] {
                const auto a = Clock::now();
                sim::SystemConfig rcfg = cfg;
                rcfg.instructions_per_core = scfg.warmup;
                sim::System sys(rcfg);
                sample::restore(sys, ckpts[i]);
                const bool warmed = sys.runToBudget();
                const Tick t0 = sys.currentCycle();
                const sim::MemoryHierarchy &h = sys.hierarchy();
                const uint64_t miss0 = h.llcMisses();
                const double lat0 = h.missLatencySum();
                const uint64_t done0 = h.missesCompleted();
                const uint64_t nmdb0 = sys.nm()->demandBytes();
                const uint64_t fmdb0 = sys.fm().demandBytes();
                sys.setPerCoreBudget(scfg.warmup + scfg.window);
                const bool measured = sys.runToBudget();
                const Tick t1 = sys.currentCycle();

                WindowOut &o = outs[i];
                o.ok = warmed && measured;
                const double instrs =
                    static_cast<double>(scfg.window * cfg.cores);
                const Tick ticks = t1 > t0 ? t1 - t0 : 1;
                o.ipc = static_cast<double>(scfg.window) /
                    static_cast<double>(ticks);
                o.mpki = 1000.0 *
                    static_cast<double>(h.llcMisses() - miss0) / instrs;
                o.model.miss_latency_sum = h.missLatencySum() - lat0;
                o.model.misses_completed =
                    static_cast<double>(h.missesCompleted() - done0);
                o.model.nm_demand_bytes =
                    static_cast<double>(sys.nm()->demandBytes() - nmdb0);
                o.model.fm_demand_bytes =
                    static_cast<double>(sys.fm().demandBytes() - fmdb0);
                o.seconds = secondsBetween(a, Clock::now());
            });
        }
    }
    S.replay_s = secondsBetween(t_replay, Clock::now());
    S.windows = outs.size();

    // StatsAggregator's mean: a sum in checkpoint order over n.
    double ipc_sum = 0.0;
    double mpki_sum = 0.0;
    for (const WindowOut &o : outs) {
        ipc_sum += o.ipc;
        mpki_sum += o.mpki;
        S.replay_busy_s += o.seconds;
        p.failed_jobs += o.ok ? 0 : 1;
        p.model.add(o.model);
    }
    const double n = static_cast<double>(outs.size());
    const double ipc = ipc_sum / n;
    const double mpki = mpki_sum / n;
    p.model.instructions = static_cast<double>(
        cfg.instructions_per_core * cfg.cores);
    p.model.core_ticks = p.model.instructions / ipc;
    p.model.ticks = p.model.core_ticks / cfg.cores;
    p.model.llc_misses = mpki * p.model.instructions / 1000.0;

    p.check.addDouble(ipc);
    p.check.addDouble(mpki);
    p.check.addU64(outs.size());
    p.wall_s = secondsBetween(t_setup, Clock::now());
    p.pass_wall_s = p.wall_s;
    p.busy_frac = S.replay_busy_s / (S.replay_s * threads);
    p.jobs = 1;
    return p;
}

void
printTraced(const std::string &workload, unsigned threads,
            const TracedPass &p)
{
    const Layers &L = p.layers;
    const SampleLayers &S = p.sample;
    const ModelCounts &m = p.model;
    auto s = [](int64_t ns) { return 1e-9 * static_cast<double>(ns); };
    auto u = [](uint64_t v) { return static_cast<double>(v); };

    // Self times: the cores' span contains every port and trace span.
    JsonObject layers;
    layers.num("sim.setup_s", s(L.setup_ns));
    layers.num("sim.setup_ms_per_job",
               ratio(1e-6 * static_cast<double>(L.setup_ns),
                     u(p.jobs)));
    layers.num("trace.self_s", s(L.trace_ns));
    layers.num("trace.ns_per_instr",
               ratio(static_cast<double>(L.trace_ns), u(L.trace_instrs)));
    layers.num("cpu.self_s", s(L.cores_ns - L.hier_ns - L.trace_ns));
    layers.num("cpu.ff_skip_frac", ratio(u(L.skipped_cycles), u(L.cycles)));
    layers.num("hier.self_s", s(L.hier_ns));
    layers.num("hier.ns_per_access",
               ratio(static_cast<double>(L.hier_ns), u(L.hier_accesses)));
    layers.num("hier.accesses", u(L.hier_accesses));
    layers.num("hier.rejects", u(L.hier_rejects));
    layers.num("events.self_s", s(L.events_ns));
    layers.num("events.executed", u(L.events_executed));
    layers.num("dram.nm.scan_s", s(L.nm_scan_ns));
    layers.num("dram.fm.scan_s", s(L.fm_scan_ns));
    layers.num("dram.nm.scans", u(L.nm_scans));
    layers.num("dram.fm.scans", u(L.fm_scans));
    layers.num("dram.nm.ns_per_scan",
               ratio(static_cast<double>(L.nm_scan_ns), u(L.nm_scans)));
    layers.num("dram.fm.ns_per_scan",
               ratio(static_cast<double>(L.fm_scan_ns), u(L.fm_scans)));
    layers.num("policy.tick_s", s(L.policy_ns));
    layers.num("pool.busy_frac", p.busy_frac);
    layers.num("sample.warm_s", S.warm_s);
    layers.num("sample.warm_minstr_per_s",
               ratio(1e-6 * u(S.warm_instrs), S.warm_s));
    layers.num("sample.ckpt_s", S.ckpt_s);
    layers.num("sample.replay_s", S.replay_s);
    layers.num("sample.windows", u(S.windows));

    const double attributed = s(L.setup_ns + L.cores_ns + L.events_ns +
                                L.nm_scan_ns + L.fm_scan_ns +
                                L.policy_ns) +
        S.warm_s + S.ckpt_s + S.replay_s;
    layers.num("traced_wall_s", p.wall_s);
    layers.num("unattributed_s", p.wall_s - attributed);

    layers.num("sim.ipc", ratio(m.instructions, m.core_ticks));
    layers.num("cache.llc_mpki", ratio(1000.0 * m.llc_misses,
                                       m.instructions));
    layers.num("cache.l1d_hit_rate", ratio(m.l1d_hits, m.l1d_accesses));
    layers.num("cache.l2_hit_rate", ratio(m.l2_hits, m.l2_accesses));
    layers.num("dram.fm.row_hit_rate",
               ratio(m.fm_row_hits, m.fm_row_accesses));
    layers.num("dram.nm.bus_util", ratio(m.nm_busy_ticks, m.ticks));
    layers.num("dram.fm.bus_util", ratio(m.fm_busy_ticks, m.ticks));
    layers.num("sim.avg_miss_latency_ticks",
               ratio(m.miss_latency_sum, m.misses_completed));
    layers.num("sim.nm_demand_fraction",
               ratio(m.nm_demand_bytes,
                     m.nm_demand_bytes + m.fm_demand_bytes));

    JsonObject out;
    out.str("mode", "traced");
    out.str("workload", workload);
    describeHost(out, threads);
    out.num("wall_s", p.wall_s);
    out.num("pass_wall_s", p.pass_wall_s);
    out.num("jobs", u(p.jobs));
    out.num("failed_jobs", u(p.failed_jobs));
    out.str("check", p.check.hex());
    out.obj("layers", layers);
    out.num("peak_rss_mib", peakRssMib());
    std::printf("%s\n", out.render().c_str());
}

// ---- Entry point -------------------------------------------------------

/**
 * Move the calling (main) thread onto @p cpu, then allow every CPU
 * again.  The thread stays on @p cpu while nothing else wants it, and
 * the pool threads it creates later may run anywhere.  CPUs of a shared
 * host differ in speed for minutes at a time, so run.py starts
 * successive passes on successive CPUs to sample all of them alike.
 */
void
startOnCpu(int cpu)
{
    cpu_set_t all;
    if (sched_getaffinity(0, sizeof all, &all) != 0 || !CPU_ISSET(cpu, &all))
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    sched_setaffinity(0, sizeof all, &all);
}

const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_pass --workload "
                 "detail-bw|detail-hit|grid|sampled --seed <n> "
                 "--threads <n> --mode setup|plain|traced|reference "
                 "[--cpu <n>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    const char *workload_arg = argValue(argc, argv, "--workload");
    const char *seed_arg = argValue(argc, argv, "--seed");
    const char *threads_arg = argValue(argc, argv, "--threads");
    const char *mode_arg = argValue(argc, argv, "--mode");
    if (!workload_arg || !seed_arg || !threads_arg || !mode_arg)
        return usage();
    const std::string workload = workload_arg;
    const std::string mode = mode_arg;
    const uint64_t seed = std::strtoull(seed_arg, nullptr, 10);
    const unsigned threads =
        static_cast<unsigned>(std::strtoul(threads_arg, nullptr, 10));
    if (threads == 0)
        return usage();
    if (const char *cpu_arg = argValue(argc, argv, "--cpu"))
        startOnCpu(std::atoi(cpu_arg));

    const bool detail = workload == "detail-bw" || workload == "detail-hit";
    sim::SystemConfig detail_cfg;
    if (workload == "detail-bw")
        detail_cfg = detailConfig("lbm", kBwInstr, seed);
    else if (workload == "detail-hit")
        detail_cfg = detailConfig("dealii", kHitInstr, seed);
    else if (workload != "grid" && workload != "sampled")
        return usage();

    if (mode == "setup") {
        std::unique_ptr<sim::ParallelRunner> runner;
        std::unique_ptr<sim::System> sys;
        if (detail) {
            sys = std::make_unique<sim::System>(detail_cfg);
        } else if (workload == "grid") {
            const sim::ExperimentOptions opts = gridOptions(seed);
            runner = std::make_unique<sim::ParallelRunner>(opts, threads);
            const GridCell cell = gridCells().front();
            sys = std::make_unique<sim::System>(
                sim::makeConfig(cell.workload, cell.scheme, opts));
        } else {
            sys = std::make_unique<sim::System>(sampledConfig(seed));
        }
        JsonObject out;
        out.str("mode", "setup");
        out.str("workload", workload);
        out.num("setup_s", secondsBetween(start, Clock::now()));
        std::printf("%s\n", out.render().c_str());
    } else if (mode == "plain") {
        printPlain(workload, threads,
                   detail ? plainDetail(detail_cfg)
                   : workload == "grid" ? plainGrid(seed, threads)
                                        : plainSampled(seed, threads));
    } else if (mode == "traced") {
        printTraced(workload, threads,
                    detail ? tracedDetail(detail_cfg)
                    : workload == "grid" ? tracedGrid(seed, threads)
                                         : tracedSampled(seed, threads));
    } else if (mode == "reference" && workload == "sampled") {
        sim::System sys(sampledConfig(seed));
        const auto t0 = Clock::now();
        const sim::SimResult r = sys.run();
        JsonObject out;
        out.str("mode", "reference");
        out.str("workload", workload);
        out.num("wall_s", secondsBetween(t0, Clock::now()));
        out.num("failed_jobs", r.hit_tick_limit ? 1 : 0);
        out.num("ipc", r.ipc);
        std::printf("%s\n", out.render().c_str());
    } else {
        return usage();
    }
    return 0;
}
