#include "screening.hh"

#include <algorithm>
#include <cmath>

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
      plan_(numeric::autotuneScreenerKernels(screener_,
                                             numeric::activeIsa()))
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
    // The tuned row chunk is the parallel grain: each pool task
    // streams one L2-resident slice of the packed matrix.  The
    // chunking (like the ISA level) only regroups exact integer
    // dot products, so the scores are bit-identical for any plan.
    const auto score_rows = [&](std::size_t row_begin,
                                std::size_t row_end) {
        screener_.dotRowsLut(row_begin, row_end, widened,
                             feature.scale, out.data() + row_begin,
                             plan_.isa);
    };
    if (pool_)
        pool_->parallelFor(0, screener_.rows(), plan_.rowChunk,
                           score_rows);
    else
        score_rows(0, screener_.rows());
}

std::vector<std::vector<double>>
Screener::scoresBatch(
    std::span<const numeric::Int4Vector> features) const
{
    const std::size_t queries = features.size();
    std::vector<std::vector<double>> out(queries);
    if (queries == 0)
        return out;

    // Widen every query once, contiguously, so the blocked kernel
    // can stride across them.
    const std::size_t stride = 2 * screener_.bytesPerRow();
    std::vector<std::int16_t> widened(queries * stride);
    std::vector<float> scales(queries);
    std::vector<std::int16_t> one;
    for (std::size_t q = 0; q < queries; ++q) {
        screener_.widenFeature(features[q], one);
        std::copy(one.begin(), one.end(),
                  widened.begin()
                      + static_cast<std::ptrdiff_t>(q * stride));
        scales[q] = features[q].scale;
    }
    for (std::size_t q = 0; q < queries; ++q)
        out[q].resize(screener_.rows());

    // The parallel dimension is rows: each chunk runs the blocked
    // kernel over its row range for every query, then scatters into
    // the per-query output vectors — disjoint slots, so chunk
    // execution order cannot matter.
    const auto score_rows_blocked = [&](std::size_t row_begin,
                                        std::size_t row_end) {
        // Flat chunk-local buffer, query-major, then scatter to the
        // per-query vectors in fixed order.
        const std::size_t rows = row_end - row_begin;
        std::vector<double> block(queries * rows);
        screener_.dotRowsBatchLut(row_begin, row_end, widened.data(),
                                  queries, stride, scales.data(),
                                  block.data(), rows, plan_.isa,
                                  plan_.queryTile);
        for (std::size_t q = 0; q < queries; ++q)
            std::copy(block.begin()
                          + static_cast<std::ptrdiff_t>(q * rows),
                      block.begin()
                          + static_cast<std::ptrdiff_t>((q + 1)
                                                        * rows),
                      out[q].begin()
                          + static_cast<std::ptrdiff_t>(row_begin));
    };
    if (pool_)
        pool_->parallelFor(0, screener_.rows(), plan_.rowChunk,
                           score_rows_blocked);
    else
        score_rows_blocked(0, screener_.rows());
    return out;
}

void
Screener::calibrate(const std::vector<std::vector<float>> &queries)
{
    ECSSD_ASSERT(!queries.empty(), "calibration needs queries");
    // Pool all screener scores and pick the global quantile that
    // passes candidateRatio of them: the "pre-trained threshold".
    // One blocked sweep scores every calibration query at once.
    std::vector<numeric::Int4Vector> prepared(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q)
        prepareFeatureInto(queries[q], prepared[q]);
    const std::vector<std::vector<double>> all =
        scoresBatch(prepared);
    std::vector<double> pooled;
    pooled.reserve(queries.size() * screener_.rows());
    for (const std::vector<double> &s : all)
        pooled.insert(pooled.end(), s.begin(), s.end());
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(pooled.size())
               * spec_.candidateRatio));
    std::nth_element(pooled.begin(),
                     pooled.end() - static_cast<std::ptrdiff_t>(keep),
                     pooled.end());
    threshold_ = pooled[pooled.size() - keep];
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

CandidateClassifier::CandidateClassifier(
    const numeric::FloatMatrix &weights, sim::ThreadPool *pool)
    : weights_(weights), pool_(pool), isa_(numeric::activeIsa())
{
}

/** Pre-alignment rows per parallel chunk. */
static constexpr std::size_t kAlignGrain = 256;

void
CandidateClassifier::ensureAligned() const
{
    if (aligned_)
        return;
    alignedRows_.resize(weights_.rows());
    const auto align_rows = [&](std::size_t row_begin,
                                std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r)
            alignedRows_[r] =
                numeric::Cfp32Vector::preAlign(weights_.row(r));
    };
    if (pool_)
        pool_->parallelFor(0, weights_.rows(), kAlignGrain,
                           align_rows);
    else
        align_rows(0, weights_.rows());
    aligned_ = true;
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

    ensureAligned();
    const numeric::Cfp32Vector aligned_feature =
        numeric::Cfp32Vector::preAlign(feature);
    run([&](std::uint64_t row) {
        return numeric::AlignmentFreeMac::dot(alignedRows_[row],
                                              aligned_feature)
            .value;
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
    Prediction prediction;
    const std::vector<std::uint64_t> candidates =
        screener_.screen(feature, mode);
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

ApproximateClassifier::Prediction
ApproximateClassifier::screenerOnly(std::span<const float> feature,
                                    std::size_t k) const
{
    Prediction prediction;
    const numeric::Int4Vector prepared =
        screener_.prepareFeature(feature);
    const std::vector<double> scores = screener_.scores(prepared);
    prediction.candidateCount = 0;
    const std::vector<std::uint64_t> best =
        topKIndices(std::span<const double>(scores), k);
    for (const std::uint64_t row : best) {
        prediction.topCategories.push_back(row);
        prediction.topScores.push_back(scores[row]);
    }
    return prediction;
}

ApproximateClassifier::Prediction
ApproximateClassifier::exact(std::span<const float> feature,
                             std::size_t k) const
{
    Prediction prediction;
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
    prediction.candidateCount = weights_.rows();
    const std::vector<std::uint64_t> best =
        topKIndices(std::span<const double>(scores), k);
    for (const std::uint64_t row : best) {
        prediction.topCategories.push_back(row);
        prediction.topScores.push_back(scores[row]);
    }
    return prediction;
}

} // namespace xclass
} // namespace ecssd
