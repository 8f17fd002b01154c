#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace ecssd
{
namespace sim
{

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    sumSquares_ += v * v;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    sumSquares_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::variance() const
{
    if (count_ == 0)
        return 0.0;
    const double m = mean();
    const double v =
        sumSquares_ / static_cast<double>(count_) - m * m;
    return std::max(v, 0.0);
}

void
Percentiles::sample(double v)
{
    samples_.push_back(v);
    sorted_ = false;
}

double
Percentiles::quantile(double q) const
{
    ECSSD_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of [0,1]");
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = q * static_cast<double>(samples_.size() - 1);
    const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
    return samples_[std::min(idx, samples_.size() - 1)];
}

void
Percentiles::reset()
{
    samples_.clear();
    sorted_ = true;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    ECSSD_ASSERT(hi > lo && buckets > 0, "bad histogram shape");
}

void
Histogram::sample(double v)
{
    if (total_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++total_;
    sum_ += v;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        const auto idx = static_cast<std::size_t>((v - lo_) / width_);
        ++counts_[std::min(idx, counts_.size() - 1)];
    }
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
    total_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Histogram::mean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

double
Histogram::quantile(double q) const
{
    ECSSD_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of [0,1]");
    if (total_ == 0)
        return 0.0;
    // Target rank in [1, total], nearest-rank with interpolation
    // inside the covering bucket.
    const double target =
        q * static_cast<double>(total_ - 1) + 1.0;
    double cumulative = static_cast<double>(underflow_);
    if (target <= cumulative)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double in_bucket = static_cast<double>(counts_[i]);
        if (in_bucket == 0.0)
            continue;
        if (target <= cumulative + in_bucket) {
            const double within = target - cumulative;
            return bucketLow(i) + width_ * (within / in_bucket);
        }
        cumulative += in_bucket;
    }
    return hi_; // rank falls in the overflow tail
}

double
Histogram::bucketLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

} // namespace sim
} // namespace ecssd
