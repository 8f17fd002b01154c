#include "screening.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hh"
#include "xclass/metrics.hh"

namespace ecssd
{
namespace xclass
{

Screener::Screener(const numeric::FloatMatrix &weights,
                   const BenchmarkSpec &spec, std::uint64_t seed,
                   const numeric::FloatMatrix *trained_projection,
                   sim::ThreadPool *pool)
    : spec_(spec), pool_(pool),
      projector_(trained_projection
                     ? numeric::Projector(*trained_projection)
                     : numeric::Projector(weights.cols(),
                                          spec.shrunkDim(), seed)),
      screener_(projector_.projectRows(weights, pool), pool),
      isa_(numeric::activeIsa()),
      rowChunk_(numeric::rowChunkFor(screener_.bytesPerRow()))
{
    ECSSD_ASSERT(weights.rows() == spec.categories,
                 "weights/spec category mismatch");
    if (trained_projection) {
        ECSSD_ASSERT(trained_projection->cols() == weights.cols()
                         && trained_projection->rows()
                                == spec.shrunkDim(),
                     "trained projection shape mismatch");
    }
}

numeric::Int4Vector
Screener::prepareFeature(std::span<const float> feature) const
{
    numeric::Int4Vector out;
    prepareFeatureInto(feature, out);
    return out;
}

void
Screener::prepareFeatureInto(std::span<const float> feature,
                             numeric::Int4Vector &out) const
{
    projector_.projectInto(feature, projectedScratch_);
    numeric::quantizeVectorInto(projectedScratch_, out);
}

std::vector<double>
Screener::scores(const numeric::Int4Vector &feature) const
{
    std::vector<double> out;
    scoresInto(feature, out);
    return out;
}

void
Screener::scoresInto(const numeric::Int4Vector &feature,
                     std::vector<double> &out) const
{
    screener_.widenFeature(feature, widenedScratch_);
    out.resize(screener_.rows());
    const std::span<const std::int16_t> widened(widenedScratch_);
    // The row chunk is the parallel grain: each pool task streams
    // one L2-resident slice of the packed matrix.  The chunking (like
    // the ISA level) only regroups exact integer dot products, so the
    // scores are bit-identical for any chunk.
    const auto score_rows = [&](std::size_t row_begin,
                                std::size_t row_end) {
        screener_.dotRowsLut(row_begin, row_end, widened,
                             feature.scale, out.data() + row_begin,
                             isa_);
    };
    if (pool_)
        pool_->parallelFor(0, screener_.rows(), rowChunk_,
                           score_rows);
    else
        score_rows(0, screener_.rows());
}

namespace
{

/**
 * Order-preserving image of a finite double: unsigned key order is the
 * numeric order (a negative's bits flip, a positive gains the top
 * bit).  Only -0.0 and +0.0 compare equal with distinct keys, and a
 * screener score is never -0.0 (an exact integer times two
 * non-negative scales), so equal keys are equal scores.
 */
std::uint64_t
orderKey(double value)
{
    constexpr std::uint64_t top = std::uint64_t{1} << 63;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return (bits & top) != 0 ? ~bits : bits | top;
}

double
fromOrderKey(std::uint64_t key)
{
    constexpr std::uint64_t top = std::uint64_t{1} << 63;
    const std::uint64_t bits = (key & top) != 0 ? key & ~top : ~key;
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Key bits one histogram pass resolves (2^16 buckets, 512 KiB). */
constexpr unsigned kSelectBits = 16;

} // namespace

void
Screener::calibrate(const std::vector<std::vector<float>> &queries)
{
    ECSSD_ASSERT(!queries.empty(), "calibration needs queries");
    // The "pre-trained threshold" is the global quantile that passes
    // candidateRatio of all Q x L pooled screener scores: the score at
    // ascending rank Q * L - keep.  It is found by exact radix
    // selection over order keys.  Each pass scores one query at a
    // time.  A histogram pass fixes the next kSelectBits key bits of
    // the threshold; once the boundary bucket holds at most L scores,
    // one more pass collects it for nth_element.
    std::vector<numeric::Int4Vector> prepared(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        prepareFeatureInto(queries[q], prepared[q]);
    const auto for_each_score = [&](const auto &visit) {
        for (const numeric::Int4Vector &feature : prepared) {
            scoresInto(feature, scoreScratch_);
            for (const double score : scoreScratch_)
                visit(score);
        }
    };

    const std::size_t rows = screener_.rows();
    const std::size_t total = queries.size() * rows;
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(total)
                                    * spec_.candidateRatio));
    ECSSD_ASSERT(keep <= total, "candidate ratio above 1");
    // Ascending rank of the threshold among the scores under the
    // prefix fixed so far.
    std::size_t rank = total - keep;
    std::uint64_t prefix = 0;
    unsigned fixed_bits = 0;
    const auto under_prefix = [&](std::uint64_t key) {
        return fixed_bits == 0 || key >> (64 - fixed_bits) == prefix;
    };

    std::size_t boundary_size = total;
    std::vector<std::size_t> histogram;
    while (boundary_size > rows && fixed_bits < 64) {
        histogram.assign(std::size_t{1} << kSelectBits, 0);
        const unsigned shift = 64 - fixed_bits - kSelectBits;
        for_each_score([&](double score) {
            const std::uint64_t key = orderKey(score);
            if (under_prefix(key))
                ++histogram[(key >> shift) & (histogram.size() - 1)];
        });
        std::size_t bucket = 0;
        while (rank >= histogram[bucket])
            rank -= histogram[bucket++];
        prefix = (prefix << kSelectBits) | bucket;
        fixed_bits += kSelectBits;
        boundary_size = histogram[bucket];
    }
    if (fixed_bits == 64) {
        // Every key bit is fixed: the boundary holds one value.
        threshold_ = fromOrderKey(prefix);
        return;
    }
    std::vector<double> boundary;
    boundary.reserve(boundary_size);
    for_each_score([&](double score) {
        if (under_prefix(orderKey(score)))
            boundary.push_back(score);
    });
    std::nth_element(boundary.begin(),
                     boundary.begin() + static_cast<std::ptrdiff_t>(rank),
                     boundary.end());
    threshold_ = boundary[rank];
}

std::vector<std::uint64_t>
Screener::screen(std::span<const float> feature, FilterMode mode) const
{
    prepareFeatureInto(feature, preparedScratch_);
    scoresInto(preparedScratch_, scoreScratch_);
    const std::vector<double> &s = scoreScratch_;

    std::vector<std::uint64_t> candidates;
    if (mode == FilterMode::Threshold) {
        for (std::size_t r = 0; r < s.size(); ++r)
            if (s[r] >= threshold_)
                candidates.push_back(r);
    } else {
        const std::size_t want = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   static_cast<double>(s.size())
                   * spec_.candidateRatio));
        candidates = topKIndices(std::span<const double>(s), want);
        std::sort(candidates.begin(), candidates.end());
    }
    return candidates;
}

std::vector<double>
Screener::rowAbsMasses() const
{
    std::vector<double> masses(screener_.rows());
    for (std::size_t r = 0; r < screener_.rows(); ++r)
        masses[r] = static_cast<double>(screener_.rowAbsSum(r))
            * screener_.rowScale(r);
    return masses;
}

/** Pre-alignment rows per parallel chunk. */
static constexpr std::size_t kAlignGrain = 256;

CandidateClassifier::CandidateClassifier(
    const numeric::FloatMatrix &weights, sim::ThreadPool *pool)
    : weights_(weights), pool_(pool), isa_(numeric::activeIsa())
{
    const std::size_t dim = weights_.cols();
    if (dim > numeric::kCfp32SlabMaxDim)
        sim::fatal("the CFP32 re-rank sums rows of at most ",
                   numeric::kCfp32SlabMaxDim, " elements exactly; got ",
                   dim);
    slab_.resize(weights_.rows() * dim);
    rowExponents_.resize(weights_.rows());
    // Each row is aligned on its own into its own slots, so any
    // chunking over the pool builds the same slab.
    const auto align_rows = [&](std::size_t row_begin,
                                std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r)
            rowExponents_[r] = static_cast<std::uint8_t>(
                numeric::preAlignSigned(weights_.row(r),
                                        slab_.data() + r * dim, isa_));
    };
    if (pool_)
        pool_->parallelFor(0, weights_.rows(), kAlignGrain,
                           align_rows);
    else
        align_rows(0, weights_.rows());
}

/** Candidate MACs per parallel chunk of the FP32 re-rank. */
static constexpr std::size_t kRerankGrain = 64;

std::vector<double>
CandidateClassifier::scores(std::span<const float> feature,
                            std::span<const std::uint64_t> candidates,
                            Datapath datapath) const
{
    std::vector<double> out(candidates.size());

    // Each candidate's MAC is computed exactly as in the serial loop
    // and lands in its own slot, so chunking over the pool cannot
    // change a single bit of the result.
    const auto run = [&](const auto &score_one) {
        const auto score_range = [&](std::size_t begin,
                                     std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                out[i] = score_one(candidates[i]);
        };
        if (pool_)
            pool_->parallelFor(0, candidates.size(), kRerankGrain,
                               score_range);
        else
            score_range(0, candidates.size());
    };

    if (datapath == Datapath::Fp32) {
        // Same binary32 pairwise-tree datapath NaiveFpMac models,
        // minus the micro-op bookkeeping: the SIMD kernel computes
        // the identical tree at every ISA level, so the re-rank
        // scores match the scalar reference bit for bit.
        run([&](std::uint64_t row) {
            return numeric::pairwiseDotF32(weights_.row(row),
                                           feature, isa_);
        });
        return out;
    }

    // The slab dot sums the same integer AlignmentFreeMac::dot does,
    // and the same normalization turns it into the same double.
    const std::size_t dim = weights_.cols();
    ECSSD_ASSERT(feature.size() == dim, "dot operand size mismatch");
    const numeric::Cfp32Vector aligned =
        numeric::Cfp32Vector::preAlign(feature, isa_);
    std::vector<std::int32_t> lo(dim);
    std::vector<std::int32_t> hi(dim);
    numeric::splitSignificands(aligned, lo.data(), hi.data());
    run([&](std::uint64_t row) {
        return numeric::AlignmentFreeMac::normalize(
            numeric::cfp32SlabDot(slab_.data() + row * dim, lo.data(),
                                  hi.data(), dim, isa_),
            rowExponents_[row], aligned.sharedExponent());
    });
    return out;
}

ApproximateClassifier::ApproximateClassifier(
    const numeric::FloatMatrix &weights, const BenchmarkSpec &spec,
    std::uint64_t seed,
    const numeric::FloatMatrix *trained_projection,
    sim::ThreadPool *pool)
    : weights_(weights), pool_(pool),
      screener_(weights, spec, seed, trained_projection, pool),
      classifier_(weights, pool)
{
}

ApproximateClassifier::Prediction
ApproximateClassifier::predict(
    std::span<const float> feature, std::size_t k, FilterMode mode,
    CandidateClassifier::Datapath datapath) const
{
    return predictFrom(feature, screener_.screen(feature, mode), k,
                       datapath);
}

ApproximateClassifier::Prediction
ApproximateClassifier::predictFrom(
    std::span<const float> feature,
    std::span<const std::uint64_t> candidates, std::size_t k,
    CandidateClassifier::Datapath datapath) const
{
    Prediction prediction;
    prediction.candidateCount = candidates.size();
    const std::vector<double> scores =
        classifier_.scores(feature, candidates, datapath);
    const std::vector<std::uint64_t> best =
        topKIndices(std::span<const double>(scores), k);
    for (const std::uint64_t local : best) {
        prediction.topCategories.push_back(candidates[local]);
        prediction.topScores.push_back(scores[local]);
    }
    return prediction;
}

namespace
{

/** The top-k of one score per category, as a Prediction. */
ApproximateClassifier::Prediction
topOfAllRows(const std::vector<double> &scores, std::size_t k,
             std::size_t candidate_count)
{
    ApproximateClassifier::Prediction prediction;
    prediction.candidateCount = candidate_count;
    for (const std::uint64_t row :
         topKIndices(std::span<const double>(scores), k)) {
        prediction.topCategories.push_back(row);
        prediction.topScores.push_back(scores[row]);
    }
    return prediction;
}

} // namespace

ApproximateClassifier::Prediction
ApproximateClassifier::screenerOnly(std::span<const float> feature,
                                    std::size_t k) const
{
    return topOfAllRows(
        screener_.scores(screener_.prepareFeature(feature)), k, 0);
}

ApproximateClassifier::Prediction
ApproximateClassifier::exact(std::span<const float> feature,
                             std::size_t k) const
{
    std::vector<double> scores(weights_.rows());
    const auto score_rows = [&](std::size_t row_begin,
                                std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r)
            scores[r] =
                numeric::referenceDot(weights_.row(r), feature);
    };
    if (pool_)
        pool_->parallelFor(0, weights_.rows(), kRerankGrain,
                           score_rows);
    else
        score_rows(0, weights_.rows());
    return topOfAllRows(scores, k, weights_.rows());
}

} // namespace xclass
} // namespace ecssd
