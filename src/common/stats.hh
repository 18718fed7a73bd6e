/**
 * @file
 * A fixed-width bucketed histogram with percentile estimates.
 *
 * The DRAM devices sample every read's queueing delay into one; the
 * sampling subsystem differences snapshots of it into per-window
 * histograms, and telemetry exports its p50/p95/p99 per epoch.
 */

#ifndef SILC_COMMON_STATS_HH
#define SILC_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace silc {
namespace stats {

/**
 * Fixed-width bucketed histogram over [min, max); samples outside the
 * range land in saturating under/overflow buckets.
 */
class Distribution
{
  public:
    Distribution(double min, double max, size_t num_buckets);

    void sample(double v);

    uint64_t samples() const { return n_; }
    double min() const { return min_; }
    double max() const { return max_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }
    uint64_t underflows() const { return underflow_; }
    uint64_t overflows() const { return overflow_; }

    /** Mean of all samples (including out-of-range ones). */
    double value() const;

    /**
     * The @p p quantile (p in [0, 1]) estimated from the buckets with
     * linear interpolation inside the containing bucket.  Samples in the
     * underflow bucket report min(), overflow samples max() — the
     * histogram cannot resolve beyond its range.  Zero samples yield 0.
     */
    double percentile(double p) const;

    /**
     * Bucket-wise difference against an earlier snapshot of the same
     * histogram: the returned distribution holds exactly the samples
     * recorded after @p earlier was copied.  Both operands must share
     * geometry (min/max/bucket count) and @p earlier must be a prefix
     * (every count <= ours); the sampling subsystem uses this to turn
     * cumulative DRAM latency histograms into per-window ones.
     */
    Distribution minus(const Distribution &earlier) const;

  private:
    double min_;
    double max_;
    double bucket_width_;
    std::vector<uint64_t> buckets_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t n_ = 0;
    double sum_ = 0.0;
};

} // namespace stats
} // namespace silc

#endif // SILC_COMMON_STATS_HH
