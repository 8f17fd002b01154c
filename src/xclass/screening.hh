/**
 * @file
 * The approximate screening algorithm for extreme classification
 * (Section 2.1, Fig 2).
 *
 * Pipeline: project the L x D FP32 weight matrix to L x K (K = D/4),
 * quantize to INT4; at inference time score all L categories with the
 * INT4 screener, keep rows whose score clears a pre-trained
 * threshold, and run full-precision classification only on those
 * candidates.
 */

#ifndef ECSSD_XCLASS_SCREENING_HH
#define ECSSD_XCLASS_SCREENING_HH

#include <cstdint>
#include <span>
#include <vector>

#include "numeric/cfp32.hh"
#include "numeric/int4.hh"
#include "numeric/mac.hh"
#include "numeric/matrix.hh"
#include "numeric/projection.hh"
#include "sim/thread_pool.hh"
#include "xclass/workload.hh"

namespace ecssd
{
namespace xclass
{

/** How candidates are selected from screener scores. */
enum class FilterMode
{
    /** Fixed pre-trained threshold (the paper's Filter_threshold). */
    Threshold,
    /** Exact per-query top-ratio selection (idealized reference). */
    TopRatio,
};

/** The low-precision approximate screener. */
class Screener
{
  public:
    /**
     * Build the screener from full-precision weights.
     *
     * @param weights L x D FP32 weight matrix.
     * @param spec Benchmark parameters (projection scale, ratio).
     * @param seed Seed for the (random) projection.
     * @param trained_projection Optional pre-trained K x D
     *        projection (e.g. the weight manifold's basis); when
     *        null a seeded random Gaussian projection is used.
     * @param pool Optional host-compute pool: preprocessing
     *        (projection, quantization) and per-query scoring run
     *        chunked over its threads, bit-identical to the serial
     *        path for any pool size.  Must outlive the screener.
     */
    Screener(const numeric::FloatMatrix &weights,
             const BenchmarkSpec &spec, std::uint64_t seed,
             const numeric::FloatMatrix *trained_projection =
                 nullptr,
             sim::ThreadPool *pool = nullptr);

    std::size_t categories() const { return screener_.rows(); }
    std::uint32_t shrunkDim() const
    {
        return static_cast<std::uint32_t>(screener_.cols());
    }

    const numeric::Int4Matrix &weightsInt4() const
    {
        return screener_;
    }

    const numeric::Projector &projector() const { return projector_; }

    /** Project + quantize one full-dimension feature. */
    numeric::Int4Vector prepareFeature(
        std::span<const float> feature) const;

    /**
     * Project + quantize into an existing vector, reusing its packed
     * storage (no per-query allocation after warm-up).
     */
    void prepareFeatureInto(std::span<const float> feature,
                            numeric::Int4Vector &out) const;

    /** Screener scores of every category for a prepared feature. */
    std::vector<double> scores(
        const numeric::Int4Vector &feature) const;

    /**
     * Score into an existing vector (resized to L).  The hot path:
     * byte-wise LUT kernel, chunked over the pool when one is
     * attached.  One query at a time per screener — the internal
     * scratch buffers are not synchronized across callers.
     */
    void scoresInto(const numeric::Int4Vector &feature,
                    std::vector<double> &out) const;

    /**
     * Calibrate the threshold on @p queries so that on average a
     * candidateRatio fraction of categories clears it: the threshold
     * is the keep-th largest of the Q x L pooled screener scores,
     * keep = max(1, floor(Q * L * candidateRatio)).  Exact selection
     * in O(L) memory: every pass scores one query at a time.
     */
    void calibrate(const std::vector<std::vector<float>> &queries);

    double threshold() const { return threshold_; }
    void setThreshold(double t) { threshold_ = t; }

    /**
     * Select candidate categories for one feature.
     *
     * @param feature Full-dimension FP32 feature.
     * @param mode Threshold (deployed behaviour) or TopRatio.
     * @return Sorted candidate category indices.
     */
    std::vector<std::uint64_t> screen(std::span<const float> feature,
                                      FilterMode mode) const;

    /** Hot-degree input of the interleaving framework: the L1 mass of
     *  each INT4 screener row (Section 5.3). */
    std::vector<double> rowAbsMasses() const;

  private:
    BenchmarkSpec spec_;
    sim::ThreadPool *pool_ = nullptr;
    numeric::Projector projector_;
    numeric::Int4Matrix screener_;
    // The level every score call runs at, captured at construction.
    numeric::IsaLevel isa_ = numeric::IsaLevel::Scalar;
    // Rows per pool task: one L2-resident slice of the packed matrix.
    std::size_t rowChunk_ = 0;
    double threshold_ = 0.0;
    // Per-query scratch (projection output, quantized feature,
    // widened int16 feature): reused across queries so the hot path
    // stops allocating.  Guarded by the one-query-at-a-time contract
    // of scoresInto().
    mutable std::vector<float> projectedScratch_;
    mutable numeric::Int4Vector preparedScratch_;
    mutable std::vector<std::int16_t> widenedScratch_;
    mutable std::vector<double> scoreScratch_;
};

/** FP32 classification restricted to screened candidates. */
class CandidateClassifier
{
  public:
    /** Which arithmetic the full-precision stage uses. */
    enum class Datapath
    {
        /** IEEE binary32 reference. */
        Fp32,
        /** ECSSD's CFP32 + alignment-free integer MAC. */
        Cfp32AlignmentFree,
    };

    /**
     * Pre-align every row of @p weights into the CFP32 slab (the
     * offline Pre_align() of the weights).
     *
     * @param weights The L x D FP32 matrix (kept by reference; must
     *        outlive the classifier).  Fatal when D exceeds
     *        numeric::kCfp32SlabMaxDim, the longest row the re-rank
     *        dot sums exactly.
     * @param pool Optional host-compute pool: pre-alignment and
     *        candidate scoring run chunked over its threads
     *        (bit-identical — every row and every candidate's MAC is
     *        an independent output slot).
     */
    explicit CandidateClassifier(const numeric::FloatMatrix &weights,
                                 sim::ThreadPool *pool = nullptr);

    /**
     * Score @p candidates against @p feature.
     *
     * @return Scores parallel to @p candidates.
     */
    std::vector<double> scores(
        std::span<const float> feature,
        std::span<const std::uint64_t> candidates,
        Datapath datapath) const;

  private:
    const numeric::FloatMatrix &weights_;
    sim::ThreadPool *pool_ = nullptr;
    // ISA level captured at construction so every re-rank in this
    // classifier's lifetime runs the same kernels.
    numeric::IsaLevel isa_ = numeric::IsaLevel::Scalar;
    // The pre-aligned weights: row r's signed significands (sign
    // applied) at slab_[r * D, (r + 1) * D), its shared biased
    // exponent at rowExponents_[r].
    std::vector<std::int32_t> slab_;
    std::vector<std::uint8_t> rowExponents_;
};

/** End-to-end approximate classifier: screen, then classify. */
class ApproximateClassifier
{
  public:
    /** Result of one query. */
    struct Prediction
    {
        /** Top-k categories, most likely first. */
        std::vector<std::uint64_t> topCategories;
        std::vector<double> topScores;
        /** Candidate count the screener produced. */
        std::size_t candidateCount = 0;
    };

    ApproximateClassifier(const numeric::FloatMatrix &weights,
                          const BenchmarkSpec &spec,
                          std::uint64_t seed,
                          const numeric::FloatMatrix
                              *trained_projection = nullptr,
                          sim::ThreadPool *pool = nullptr);

    Screener &screener() { return screener_; }
    const Screener &screener() const { return screener_; }

    /** The full-precision stage on its own (scores an explicit
     *  candidate set). */
    const CandidateClassifier &candidateClassifier() const
    {
        return classifier_;
    }

    /** Run the full algorithm for one query. */
    Prediction predict(
        std::span<const float> feature, std::size_t k,
        FilterMode mode = FilterMode::TopRatio,
        CandidateClassifier::Datapath datapath =
            CandidateClassifier::Datapath::Cfp32AlignmentFree) const;

    /**
     * Full-precision top-k restricted to an explicit candidate set
     * (the brownout ReducedCandidates path: the caller already
     * screened — and possibly capped — the candidates).
     */
    Prediction predictFrom(
        std::span<const float> feature,
        std::span<const std::uint64_t> candidates, std::size_t k,
        CandidateClassifier::Datapath datapath =
            CandidateClassifier::Datapath::Cfp32AlignmentFree) const;

    /**
     * Top-k by INT4 screener score alone, touching no FP32 weights
     * (the brownout ScreenerOnly path: degraded recall, near-zero
     * device work).
     */
    Prediction screenerOnly(std::span<const float> feature,
                            std::size_t k) const;

    /** Exact full-precision top-k over all L rows (the baseline). */
    Prediction exact(std::span<const float> feature,
                     std::size_t k) const;

  private:
    const numeric::FloatMatrix &weights_;
    sim::ThreadPool *pool_ = nullptr;
    Screener screener_;
    CandidateClassifier classifier_;
};

} // namespace xclass
} // namespace ecssd

#endif // ECSSD_XCLASS_SCREENING_HH
