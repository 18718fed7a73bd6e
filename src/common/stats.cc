#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace silc {
namespace stats {

Distribution::Distribution(double min, double max, size_t num_buckets)
    : min_(min), max_(max),
      bucket_width_((max - min) / static_cast<double>(num_buckets)),
      buckets_(num_buckets, 0)
{
    silc_assert(max > min);
    silc_assert(num_buckets > 0);
}

void
Distribution::sample(double v)
{
    ++n_;
    sum_ += v;
    if (v < min_) {
        ++underflow_;
    } else if (v >= max_) {
        ++overflow_;
    } else {
        auto idx = static_cast<size_t>((v - min_) / bucket_width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
    }
}

double
Distribution::value() const
{
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double
Distribution::percentile(double p) const
{
    if (n_ == 0)
        return 0.0;
    p = std::min(1.0, std::max(0.0, p));
    const double target = p * static_cast<double>(n_);
    double cum = static_cast<double>(underflow_);
    if (target <= cum)
        return min_;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        const auto cnt = static_cast<double>(buckets_[i]);
        if (cnt > 0.0 && target <= cum + cnt) {
            const double frac = (target - cum) / cnt;
            return min_ +
                (static_cast<double>(i) + frac) * bucket_width_;
        }
        cum += cnt;
    }
    return max_;
}

Distribution
Distribution::minus(const Distribution &earlier) const
{
    silc_assert(min_ == earlier.min_ && max_ == earlier.max_ &&
                buckets_.size() == earlier.buckets_.size());
    silc_assert(n_ >= earlier.n_ && underflow_ >= earlier.underflow_ &&
                overflow_ >= earlier.overflow_);
    Distribution d(min_, max_, buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i) {
        silc_assert(buckets_[i] >= earlier.buckets_[i]);
        d.buckets_[i] = buckets_[i] - earlier.buckets_[i];
    }
    d.underflow_ = underflow_ - earlier.underflow_;
    d.overflow_ = overflow_ - earlier.overflow_;
    d.n_ = n_ - earlier.n_;
    d.sum_ = sum_ - earlier.sum_;
    return d;
}

} // namespace stats
} // namespace silc
