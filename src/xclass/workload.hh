/**
 * @file
 * Benchmark workload definitions (Table 3) and synthetic model
 * generation.
 *
 * The paper evaluates PyTorch-trained models on real datasets; we
 * synthesize weights and features with matched shapes and a skewed
 * (Zipfian) category-popularity structure, so that screening
 * selectivity, candidate discontinuity, and channel imbalance behave
 * like the real workloads.  Two tiers exist:
 *
 *  - *functional* tier: real float weight matrices for shapes that
 *    fit in memory, used by accuracy tests and examples;
 *  - *trace* tier: statistical candidate-set generation for the
 *    10M-100M category benchmarks whose weights (up to 400 GB) exist
 *    only as addresses inside the simulated flash.
 */

#ifndef ECSSD_XCLASS_WORKLOAD_HH
#define ECSSD_XCLASS_WORKLOAD_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "numeric/matrix.hh"
#include "sim/rng.hh"

namespace ecssd
{
namespace xclass
{

/** Shape and algorithm parameters of one benchmark (Table 3). */
struct BenchmarkSpec
{
    std::string name;
    /** Classification category count L. */
    std::uint64_t categories = 0;
    /** Full hidden dimension D. */
    std::uint32_t hiddenDim = 0;
    /** Projection scale K/D (paper: 0.25). */
    double projectionScale = 0.25;
    /** Fraction of rows surviving the screener (paper: ~10%). */
    double candidateRatio = 0.10;
    /**
     * Queries per batch.  Kept below the accelerator's roofline
     * ridge (6.4 FLOP/byte at 51.2 GFLOPS over 8 GB/s): candidate
     * weights are read once per batch, so the FP32 intensity is
     * 2 * batch / 4 FLOP per byte, and batch <= 12 keeps the system
     * in the paper's memory-bound regime (Fig 1 point B/C).
     */
    std::uint32_t batchSize = 8;
    /** Zipf skew of category popularity in the synthetic data. */
    double popularitySkew = 0.9;
    /**
     * Fraction of the candidate budget taken by the deterministic
     * "hot set" of head categories that appear in (almost) every
     * batch.  Real extreme-classification traffic concentrates on a
     * stable head; this is the structure the hot-degree predictor
     * learns from training-set candidate frequencies (Section 5.3).
     */
    double hotSetFraction = 0.8;
    /**
     * Per-batch churn of the non-hot candidate tail.  Candidate sets
     * are temporally sticky in real traffic (the same mid-popularity
     * categories keep clearing the threshold), which is what the
     * interleaving framework's training-set fine-tuning learns; only
     * this fraction of the tail is fresh in each batch.
     */
    double candidateChurn = 0.1;

    /** Shrunk screener dimension K. */
    std::uint32_t
    shrunkDim() const
    {
        return static_cast<std::uint32_t>(
            static_cast<double>(hiddenDim) * projectionScale);
    }

    /** FP32 weight matrix footprint in bytes. */
    std::uint64_t
    fp32WeightBytes() const
    {
        return categories * hiddenDim * 4ULL;
    }

    /** INT4 screener matrix footprint in bytes (packed nibbles). */
    std::uint64_t
    int4WeightBytes() const
    {
        return categories * shrunkDim() / 2ULL;
    }

    /** Bytes of one FP32 weight row. */
    std::uint64_t
    rowBytes() const
    {
        return hiddenDim * 4ULL;
    }
};

/** The seven benchmarks of Table 3. */
std::vector<BenchmarkSpec> table3Benchmarks();

/** Look up a Table 3 benchmark by abbreviation; fatal if unknown. */
BenchmarkSpec benchmarkByName(const std::string &name);

/** The three large-scale synthetic benchmarks used in Fig 13. */
std::vector<BenchmarkSpec> largeScaleBenchmarks();

/**
 * A scaled-down copy of @p spec with at most @p max_categories rows,
 * for functional runs and fast tests; all ratios are preserved.
 */
BenchmarkSpec scaledDown(const BenchmarkSpec &spec,
                         std::uint64_t max_categories);

/**
 * Synthesize a functional classification model: weight rows with
 * popularity-dependent norms (popular categories produce larger
 * scores, as trained classifiers do), plus query features.
 */
class SyntheticModel
{
  public:
    /**
     * Generate weights for @p spec (must fit in memory).
     *
     * @param spec Benchmark shape; categories * hiddenDim floats are
     *        allocated.
     * @param seed RNG seed.
     */
    SyntheticModel(const BenchmarkSpec &spec, std::uint64_t seed);

    const BenchmarkSpec &spec() const { return spec_; }
    const numeric::FloatMatrix &weights() const { return weights_; }

    /**
     * The K x D latent basis the weights were generated from (rows
     * orthonormal).  Trained classifier weights concentrate near a
     * low-dimensional manifold; screening with this basis plays the
     * role of the paper's *learned* approximate projection.
     */
    const numeric::FloatMatrix &basis() const { return basis_; }

    /** Popularity rank of each category (0 = most popular). */
    const std::vector<std::uint32_t> &popularityRank() const
    {
        return popularityRank_;
    }

    /**
     * Draw one query feature: a noisy copy of a popular category's
     * weight row, so true top-k answers exist and follow popularity.
     */
    std::vector<float> sampleQuery(sim::Rng &rng) const;

  private:
    BenchmarkSpec spec_;
    numeric::FloatMatrix weights_;
    numeric::FloatMatrix basis_;
    std::vector<std::uint32_t> popularityRank_;
    std::vector<std::uint32_t> rankToCategory_;
};

/**
 * Trace-tier candidate generator: per-query candidate row sets drawn
 * from a Zipfian popularity distribution over categories, without
 * materializing any weights.  Also exposes (optionally noisy) hotness
 * estimates, standing in for the INT4-row-mass predictor.
 */
class CandidateTrace
{
  public:
    /**
     * @param spec Benchmark shape.
     * @param seed RNG seed.
     * @param predictor_noise Standard deviation of the multiplicative
     *        noise on the hotness estimate (0 = oracle predictor).
     */
    CandidateTrace(const BenchmarkSpec &spec, std::uint64_t seed,
                   double predictor_noise = 0.25);

    const BenchmarkSpec &spec() const { return spec_; }

    /**
     * Candidate rows of one query batch over the whole category
     * space, sorted ascending.  The count is
     * categories * candidateRatio, drawn without replacement with
     * popularity bias.  Costs O(L/64 + count): membership lives in a
     * bitmap over [0, L), so ids come out sorted without a sort.
     */
    std::vector<std::uint64_t> drawCandidates();

    /**
     * Hotness estimate of one category (higher = more likely to be a
     * candidate), as the interleaving framework predicts from the
     * INT4 row masses plus training-set fine-tuning.  Deterministic
     * per category; computed on the fly so 100M-category benchmarks
     * need no per-category arrays.
     */
    double hotness(std::uint64_t category) const;

    /** Popularity rank of @p category (0 = most popular). */
    std::uint64_t rankOf(std::uint64_t category) const;

    /** Number of deterministic hot-set categories. */
    std::uint64_t hotSetSize() const;

    /** Category at popularity rank @p rank. */
    std::uint64_t categoryAtRank(std::uint64_t rank) const;

    /** The sticky (training-set observable) tail candidate set. */
    const std::vector<std::uint64_t> &stickyTail() const
    {
        return stickyTail_;
    }

  private:
    /** Draw one fresh tail category whose bit in @p taken is clear. */
    std::uint64_t drawTailCategory(
        const std::vector<std::uint64_t> &taken);

    /** One keyed Feistel round over the half-width words. */
    static std::uint64_t hashRound(std::uint64_t half,
                                   std::uint64_t key);

    std::uint64_t feistelForward(std::uint64_t value) const;
    std::uint64_t feistelBackward(std::uint64_t value) const;

    BenchmarkSpec spec_;
    mutable sim::Rng rng_;
    double predictorNoise_;
    // Keyed Feistel bijection rank <-> category over [0, L) via
    // cycle-walking, so popular ranks scatter pseudo-randomly across
    // the id space without materializing a permutation array.
    unsigned halfBits_ = 1;
    std::array<std::uint64_t, 4> feistelKeys_{};
    std::uint64_t noiseSalt_ = 0;
    /** Sorted sticky tail categories (fixed at construction). */
    std::vector<std::uint64_t> stickyTail_;
    /** Hot head plus sticky tail, one bit per category id (fixed at
     *  construction, so the head is mapped through Feistel once). */
    std::vector<std::uint64_t> baseBits_;
    /** Scratch bitmap of the batch being drawn: a copy of baseBits_
     *  minus churned sticky members plus fresh tail draws. */
    std::vector<std::uint64_t> drawBits_;
};

} // namespace xclass
} // namespace ecssd

#endif // ECSSD_XCLASS_WORKLOAD_HH
