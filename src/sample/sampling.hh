/**
 * @file
 * Statistical sampling subsystem: SMARTS-style systematic sampling with
 * functional warming and checkpointed parallel replay.
 *
 * A sampled run replaces one long detailed simulation with one
 * streaming pass, in which the first two phases below interleave:
 *
 *  1. **Functional warming** over the whole instruction stream, split
 *     by core (sim/warming.hh).  Cores, caches, translation and the
 *     policy's metadata state machine (remap tables, bit vectors,
 *     locks, predictor, balancer, activity counters) all update exactly
 *     as in detailed mode, but LLC misses complete synchronously: no
 *     MSHRs, no DRAM timing, no queueing (System::setFunctionalMode()).
 *     At every systematic interval of SILC_SAMPLE_PERIOD per-core
 *     instructions the warming system is checkpointed to an in-memory
 *     blob (sample/checkpoint.hh).
 *
 *  2. **Detailed replays**, one per checkpoint, handed to the
 *     controller's pool (sim/parallel.hh) as soon as the checkpoint is
 *     captured, so they run while warming goes on.  Each replay
 *     restores its blob into a fresh System and frees it, runs
 *     SILC_SAMPLE_WARMUP detailed instructions per core to re-warm the
 *     timing state (MSHRs, DRAM queues, row buffers) — discarded — and
 *     then measures a SILC_SAMPLE_WINDOW-instruction detailed window by
 *     differencing counters across the window edges.  At pool width 1
 *     the replay runs inline on the warming thread, right after its
 *     capture.
 *
 *  3. **Aggregation**: per-metric mean and 95% confidence interval over
 *     the window population (Student's t), reported in a `sampling`
 *     section of the silc.results.v1 JSON document.  Every checkpoint
 *     is replayed, so the windows span the whole run, one per
 *     SILC_SAMPLE_PERIOD.
 *
 * Memory: at most liveBlobBound() = 2 x pool width blobs are alive at
 * once.  A capture that would pass the bound first waits for the oldest
 * replay, so a run's peak memory follows the pool width, not its window
 * count.
 *
 * Determinism: warming runs each core's private work in parallel but
 * every shared-state update (page allocation, L2, policy) in the one
 * static per-cycle order, so its checkpoints are byte-identical at any
 * pool width; every replay restores a byte-exact blob into a System of
 * its own; windows are aggregated in checkpoint order — so results are
 * byte-identical across SILC_THREADS values, and the same as replaying
 * every window after warming ends (tests/golden/golden_sampled_*.json).
 *
 * Environment knobs (see also sim/experiment.hh):
 *   SILC_SAMPLE_PERIOD      per-core instructions between checkpoints
 *   SILC_SAMPLE_WINDOW      measured detailed instructions per core
 *   SILC_SAMPLE_WARMUP      discarded detailed warmup per core
 */

#ifndef SILC_SAMPLE_SAMPLING_HH
#define SILC_SAMPLE_SAMPLING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sample/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"

namespace silc {
namespace sample {

/** Knobs of one sampled run. */
struct SamplingConfig
{
    /** Per-core instructions between checkpoints (SILC_SAMPLE_PERIOD). */
    uint64_t period = 200'000;
    /** Measured detailed instructions per core (SILC_SAMPLE_WINDOW). */
    uint64_t window = 5'000;
    /** Discarded detailed warmup per core (SILC_SAMPLE_WARMUP). */
    uint64_t warmup = 5'000;
    /** Replay pool width; 0 means SILC_THREADS (sim/parallel.hh). */
    unsigned threads = 0;

    /** Read SILC_SAMPLE_* overrides from the environment. */
    static SamplingConfig fromEnv();

    /** fatal() on inconsistent settings (e.g. warmup+window > period). */
    void validate() const;
};

/** Metrics of one detailed measurement window (counter deltas). */
struct WindowSample
{
    uint64_t index = 0;        ///< checkpoint index (systematic order)
    uint64_t instructions = 0; ///< total retired across cores
    Tick ticks = 0;            ///< window length in ticks
    double ipc = 0.0;
    double mpki = 0.0;
    double avg_miss_latency = 0.0;
    double access_rate = 0.0;      ///< NM-serviced demand fraction
    double swaps_per_kilo = 0.0;   ///< SILC-FM subblock swaps / 1k instr
    double bypass_per_kilo = 0.0;  ///< SILC-FM bypasses / 1k instr
    double fm_read_p50 = 0.0;      ///< FM read queue delay percentiles
    double fm_read_p95 = 0.0;
    double nm_read_p95 = 0.0;
    /** NM share of demand bytes in the window (Figure 8's metric). */
    double nm_demand_fraction = 0.0;
    /** Raw demand-byte deltas, for extrapolating run totals. */
    uint64_t nm_demand_bytes = 0;
    uint64_t fm_demand_bytes = 0;
};

/** Mean and 95% confidence half-width of one metric. */
struct MetricEstimate
{
    std::string name;
    double mean = 0.0;
    double ci_half = 0.0; ///< 95% CI half-width (0 when n < 2)
    uint32_t n = 0;
};

/** What a sampled run reports alongside the synthesized SimResult. */
struct SamplingReport
{
    uint64_t period = 0;
    uint64_t window = 0;
    uint64_t warmup = 0;
    uint32_t checkpoints = 0;       ///< captured during warming
    uint32_t windows = 0;           ///< replayed: one per checkpoint
    /**
     * Per-core instructions actually executed functionally.  Equals the
     * last checkpoint position (warming stops there — the tail past it
     * feeds no window), or the full per-core budget under SILC_CHECK,
     * where the oracle verifies the whole stream.
     */
    uint64_t warm_instructions = 0;
    std::vector<MetricEstimate> metrics;

    /** Lookup by metric name; nullptr when absent. */
    const MetricEstimate *find(const std::string &name) const;
};

/**
 * Accumulates WindowSamples and produces per-metric mean + 95% CI
 * (Student's t over the window population).
 */
class StatsAggregator
{
  public:
    void add(const WindowSample &s) { samples_.push_back(s); }
    size_t windows() const { return samples_.size(); }
    const std::vector<WindowSample> &samples() const { return samples_; }

    /** Estimates for every metric, in a fixed order (ipc first). */
    std::vector<MetricEstimate> estimates() const;

    /** Two-sided 95% Student's t critical value for @p df (>= 1). */
    static double tCritical95(uint32_t df);

  private:
    std::vector<WindowSample> samples_;
};

/**
 * Drives one sampled run: functional warming + checkpointing with the
 * detailed replays streamed behind it, then aggregation.  The returned
 * SimResult carries the window-mean IPC/MPKI/latency/access-rate (with
 * ticks back-derived from the mean IPC), the warming run's footprint,
 * and the full SamplingReport in SimResult::sampling.  DRAM
 * traffic/energy fields are not estimated by sampling and read zero.
 */
class SamplingController
{
  public:
    SamplingController(sim::SystemConfig cfg, SamplingConfig scfg);

    // Replays on the pool hold `this`.
    SamplingController(const SamplingController &) = delete;
    SamplingController &operator=(const SamplingController &) = delete;

    /** Run warming + replay; fatal if the policy cannot sample. */
    sim::SimResult run();

    /** Most checkpoint blobs alive at once: 2 x pool width. */
    size_t liveBlobBound() const;

    /** Most blobs, and blob bytes, alive at once during the last run(). */
    size_t peakLiveBlobs() const { return peak_blobs_; }
    size_t peakLiveBlobBytes() const { return peak_blob_bytes_; }

  private:
    /** Count a captured blob as alive. */
    void track(const Checkpoint &ckpt);
    /** Free a blob that no replay needs any more. */
    void release(Checkpoint &ckpt);

    WindowSample replayCheckpoint(Checkpoint ckpt, uint64_t index);

    sim::SystemConfig cfg_;
    SamplingConfig scfg_;
    /** Replay pool width: SamplingConfig::threads, or SILC_THREADS. */
    unsigned width_;

    // Blobs are captured on the warming thread and freed by replays.
    std::atomic<size_t> live_blobs_{0};
    std::atomic<size_t> live_blob_bytes_{0};
    size_t peak_blobs_ = 0;      ///< written by the warming thread only
    size_t peak_blob_bytes_ = 0; ///< written by the warming thread only
};

/**
 * Sampled run when the scheme is checkpointable (policy::SchemeTraits),
 * full detailed run otherwise (with a warning) — the entry point of the
 * benches' --sample, so HMA rows keep working.
 */
sim::SimResult runMaybeSampled(const sim::SystemConfig &cfg,
                               const SamplingConfig &scfg);

} // namespace sample
} // namespace silc

#endif // SILC_SAMPLE_SAMPLING_HH
