/**
 * @file
 * Lightweight statistics collection: counters, scalars, running
 * distributions, fixed-bucket histograms and exact percentiles, a
 * slimmed-down take on gem5's stats package.  Components own their
 * statistics and read them directly.
 */

#ifndef ECSSD_SIM_STATS_HH
#define ECSSD_SIM_STATS_HH

#include <cstdint>
#include <vector>

namespace ecssd
{
namespace sim
{

/**
 * A monotonically-increasing event counter.
 *
 * Unlike Scalar it is integral and saturates at the 64-bit maximum
 * instead of wrapping, so a counter that overflows during a very long
 * run pins at "a lot" rather than silently restarting from zero (which
 * would corrupt baseline comparisons).
 */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator+=(std::uint64_t n)
    {
        value_ = (value_ > ~std::uint64_t(0) - n) ? ~std::uint64_t(0)
                                                  : value_ + n;
        return *this;
    }

    Counter &operator++() { return *this += 1; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A named monotonically-updated scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    void reset() { value_ = 0.0; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Tracks count/sum/min/max/mean of a sampled quantity. */
class Distribution
{
  public:
    Distribution() = default;

    /** Record one sample. */
    void sample(double v);

    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const;
    /** Population variance of the recorded samples. */
    double variance() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSquares_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-width-bucket histogram over [lo, hi). */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample; out-of-range samples go to under/overflow. */
    void sample(double v);

    void reset();

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t totalSamples() const { return total_; }
    double bucketLow(std::size_t i) const;
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    double sum() const { return sum_; }
    double mean() const;
    double min() const { return total_ ? min_ : 0.0; }
    double max() const { return total_ ? max_ : 0.0; }

    /**
     * The q-quantile estimated from the bucket counts by linear
     * interpolation within the covering bucket.  Samples that landed
     * in under/overflow are attributed to the range edges, so the
     * estimate stays monotone even for out-of-range tails.  Returns 0
     * for an empty histogram.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }
    double p999() const { return quantile(0.999); }

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Keeps every sample and answers arbitrary quantile queries; meant
 * for bounded-size latency studies (serving experiments), not
 * unbounded streams.
 */
class Percentiles
{
  public:
    Percentiles() = default;

    /** Record one sample. */
    void sample(double v);

    std::uint64_t count() const { return samples_.size(); }

    /**
     * The q-quantile of the recorded samples (nearest-rank).
     *
     * @param q Quantile in [0, 1]; 0.5 = median, 0.99 = p99.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    void reset();

  private:
    // Kept lazily sorted: sorting happens on query, invalidated on
    // sample.
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace sim
} // namespace ecssd

#endif // ECSSD_SIM_STATS_HH
