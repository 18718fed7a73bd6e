/**
 * @file
 * Sampling validation sweep: runs the same configuration twice — once in
 * full detail, once through the statistical sampling subsystem
 * (src/sample/) — and prints every sampled metric next to the full-run
 * value and its 95% confidence interval.  This is the differential
 * harness behind the sampling-smoke CI job and BENCH_sampling.json: a
 * healthy sampler keeps each full-run value inside the sampled CI while
 * finishing several times faster.
 *
 * Scale with SILC_CORES / SILC_INSTR / SILC_SEED; tune the sampler with
 * SILC_SAMPLE_PERIOD / SILC_SAMPLE_WINDOW / SILC_SAMPLE_WARMUP (every
 * checkpoint is replayed, so the period sets the window count).
 * SILC_CHECK=1 runs the differential oracle during the
 * functional-warming pass.
 *
 * SILC_WORKLOAD picks the Table III workload (default mcf) and
 * SILC_SCHEME the scheme (default silcfm; HMA cannot checkpoint, so its
 * "sampled" run falls back to full detail with a warning).
 *
 * --json <path> (or SILC_JSON) writes a silc.results.v1 document whose
 * runs array is [full, sampled]; the sampled run carries the "sampling"
 * section.  --paper-channels uses the full paper channel counts (8 HBM2
 * pseudo-channels vs 4 DDR3 channels, as fig8 --perf) instead of the
 * scaled-down table machine — the BENCH_sampling.json fixture, since
 * detailed-mode cost there reflects a bandwidth-stressed memory system.
 * Stderr footer for CI parsing:
 *   [sampling] W windows in S s (Fx speedup, C checkpoints)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "dram/timing.hh"
#include "sample/sampling.hh"
#include "sim/parallel.hh"
#include "sim/result_writer.hh"

using namespace silc;
using namespace silc::sim;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool paper_channels =
        checkArguments(argc, argv, true, "--paper-channels");
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    sample::SamplingConfig scfg = sample::SamplingConfig::fromEnv();
    const std::string workload = opts.workload.value_or("mcf");
    SystemConfig cfg = makeConfig(workload, opts.scheme, opts);
    if (paper_channels) {
        cfg.nm_timing = dram::hbm2Params();
        cfg.fm_timing = dram::ddr3Params();
        cfg.fm_timing.channels = 4;
    }

    std::printf("=== Sampling validation: %s, %s ===\n",
                workload.c_str(), opts.scheme.c_str());
    std::printf("(cores=%u, instr/core=%s, period=%s, window=%s, "
                "warmup=%s)\n\n",
                opts.cores, u64str(opts.instructions_per_core).c_str(),
                u64str(scfg.period).c_str(), u64str(scfg.window).c_str(),
                u64str(scfg.warmup).c_str());

    const auto t_full = std::chrono::steady_clock::now();
    SimResult full;
    {
        System sys(cfg);
        full = sys.run();
    }
    const double full_s = seconds_since(t_full);

    const auto t_samp = std::chrono::steady_clock::now();
    const SimResult sampled = sample::runMaybeSampled(cfg, scfg);
    const double samp_s = seconds_since(t_samp);

    // Full-run values for each sampled metric, in kMetricDefs order.
    const struct
    {
        const char *name;
        double full_value;
    } rows[] = {
        {"ipc", full.ipc},
        {"mpki", full.mpki},
        {"avg_miss_latency", full.avg_miss_latency},
        {"access_rate", full.access_rate},
        {"nm_demand_fraction", full.nmDemandFraction()},
    };

    std::printf("%-20s %12s %12s %12s %8s\n", "metric", "full",
                "sampled", "ci95_half", "within");
    int outside = 0;
    for (const auto &row : rows) {
        const sample::MetricEstimate *e =
            sampled.sampling ? sampled.sampling->find(row.name) : nullptr;
        if (e == nullptr)
            continue;
        const bool within =
            std::fabs(row.full_value - e->mean) <= e->ci_half;
        outside += within ? 0 : 1;
        std::printf("%-20s %12.4f %12.4f %12.4f %8s\n", row.name,
                    row.full_value, e->mean, e->ci_half,
                    within ? "yes" : "NO");
    }
    if (sampled.sampling) {
        // Sampled-only metrics (no full-run scalar in SimResult).
        for (const char *name :
             {"swaps_per_kilo", "bypass_per_kilo", "fm_read_p50",
              "fm_read_p95", "nm_read_p95"}) {
            const sample::MetricEstimate *e = sampled.sampling->find(name);
            if (e != nullptr) {
                std::printf("%-20s %12s %12.4f %12.4f %8s\n", name, "-",
                            e->mean, e->ci_half, "-");
            }
        }
        std::printf("\ncheckpoints=%u windows=%u\n",
                    sampled.sampling->checkpoints,
                    sampled.sampling->windows);
    }
    std::printf("full %.2fs, sampled %.2fs, metrics outside CI: %d\n",
                full_s, samp_s, outside);

    const std::string json = jsonOutputPath(argc, argv);
    if (!json.empty()) {
        ResultWriter writer(json, opts);
        writer.add(full);
        writer.add(sampled);
        writer.write();
        std::printf("wrote %s\n", json.c_str());
    }

    const double speedup = samp_s > 0.0 ? full_s / samp_s : 0.0;
    std::fprintf(stderr,
                 "[sampling] %u windows in %ss (%sx speedup, %u "
                 "checkpoints)\n",
                 sampled.sampling ? sampled.sampling->windows : 0,
                 fixedDecimal(samp_s, 2).c_str(),
                 fixedDecimal(speedup, 2).c_str(),
                 sampled.sampling ? sampled.sampling->checkpoints : 0);
    return 0;
}
