/**
 * @file
 * Approximate screening algorithm tests: candidate quality, recall,
 * threshold calibration, and the CFP32 datapath's accuracy claim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "numeric/kernels.hh"
#include "numeric/mac.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "xclass/metrics.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;
using namespace ecssd::xclass;

namespace
{

BenchmarkSpec
smallSpec()
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 1024);
    // K = 64 keeps the random-projection noise floor well below the
    // top-k signal (the trained projection of the paper is better
    // still).
    spec.hiddenDim = 256;
    spec.candidateRatio = 0.10;
    return spec;
}

/**
 * The pooled reference calibrate() must reproduce bit for bit: every
 * query's scores in one vector, nth_element at the keep-th largest.
 */
double
pooledThreshold(const Screener &screener,
                const std::vector<std::vector<float>> &queries,
                double ratio)
{
    std::vector<double> pooled;
    for (const std::vector<float> &query : queries) {
        const std::vector<double> scores =
            screener.scores(screener.prepareFeature(query));
        pooled.insert(pooled.end(), scores.begin(), scores.end());
    }
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(pooled.size())
                                    * ratio));
    std::nth_element(pooled.begin(),
                     pooled.end() - static_cast<std::ptrdiff_t>(keep),
                     pooled.end());
    return pooled[pooled.size() - keep];
}

void
expectCalibrationExact(const numeric::FloatMatrix &weights,
                       const BenchmarkSpec &spec,
                       const std::vector<std::vector<float>> &queries,
                       const std::string &label)
{
    SCOPED_TRACE(label);
    Screener screener(weights, spec, 2);
    screener.calibrate(queries);
    const double want =
        pooledThreshold(screener, queries, spec.candidateRatio);
    std::uint64_t got_bits = 0, want_bits = 0;
    const double got = screener.threshold();
    std::memcpy(&got_bits, &got, sizeof(got));
    std::memcpy(&want_bits, &want, sizeof(want));
    EXPECT_EQ(got_bits, want_bits) << got << " vs " << want;
}

} // namespace

TEST(Metrics, TopKIndicesOrdersByScore)
{
    const std::vector<double> scores{0.1, 0.9, 0.5, 0.7};
    const auto top =
        topKIndices(std::span<const double>(scores), 2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 1u);
    EXPECT_EQ(top[1], 3u);
}

TEST(Metrics, TopKClampsToSize)
{
    const std::vector<double> scores{1.0, 2.0};
    EXPECT_EQ(topKIndices(std::span<const double>(scores), 10).size(),
              2u);
}

TEST(Metrics, TopKBreaksTiesByIndex)
{
    const std::vector<double> scores{5.0, 5.0, 5.0};
    const auto top =
        topKIndices(std::span<const double>(scores), 2);
    EXPECT_EQ(top[0], 0u);
    EXPECT_EQ(top[1], 1u);
}

TEST(Metrics, TopKHoldsOnlyKSlots)
{
    // A caller that keeps many answers (one per query at L = 670K)
    // must not keep n slots per answer.
    std::vector<double> scores(100000);
    for (std::size_t i = 0; i < scores.size(); ++i)
        scores[i] = static_cast<double>((i * 7919) % scores.size());
    const auto top = topKIndices(std::span<const double>(scores), 5);
    ASSERT_EQ(top.size(), 5u);
    EXPECT_LT(top.capacity(), 1000u);
    EXPECT_EQ(scores[top[0]], 99999.0);
}

TEST(Metrics, RecallCountsIntersection)
{
    const std::vector<std::uint64_t> truth{1, 2, 3, 4};
    const std::vector<std::uint64_t> approx{2, 4, 9, 11};
    EXPECT_DOUBLE_EQ(recall(truth, approx), 0.5);
    EXPECT_DOUBLE_EQ(recall({}, approx), 1.0);
}

TEST(Screener, ShapesFollowSpec)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 1);
    const Screener screener(model.weights(), spec, 2);
    EXPECT_EQ(screener.categories(), spec.categories);
    EXPECT_EQ(screener.shrunkDim(), spec.shrunkDim());
}

TEST(Screener, TopRatioSelectsExactCount)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 3);
    const Screener screener(model.weights(), spec, 4);
    sim::Rng rng(5);
    const std::vector<float> query = model.sampleQuery(rng);
    const std::vector<std::uint64_t> candidates =
        screener.screen(query, FilterMode::TopRatio);
    EXPECT_EQ(candidates.size(),
              static_cast<std::size_t>(spec.categories
                                       * spec.candidateRatio));
    EXPECT_TRUE(std::is_sorted(candidates.begin(),
                               candidates.end()));
}

TEST(Screener, CalibratedThresholdHitsTargetRatio)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 6);
    Screener screener(model.weights(), spec, 7);

    sim::Rng rng(8);
    std::vector<std::vector<float>> calibration;
    for (int q = 0; q < 8; ++q)
        calibration.push_back(model.sampleQuery(rng));
    screener.calibrate(calibration);

    // On fresh queries the threshold should pass roughly the target
    // fraction of rows.
    double total_ratio = 0.0;
    const int queries = 16;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const std::vector<std::uint64_t> candidates =
            screener.screen(query, FilterMode::Threshold);
        total_ratio += static_cast<double>(candidates.size())
            / static_cast<double>(spec.categories);
    }
    EXPECT_NEAR(total_ratio / queries, spec.candidateRatio, 0.06);
}

TEST(Screener, CalibrateMatchesPooledSelectionExactly)
{
    // Two model shapes, each with: i.i.d. queries; every row repeated
    // (ties within each query); one repeated row against queries
    // scaled by multiples of 2^-20 (ties across a whole query, and a
    // boundary bucket wider than L that only lower key bits split);
    // all-zero queries, alone (every score +0.0) and mixed in.
    BenchmarkSpec wide = smallSpec();
    BenchmarkSpec narrow =
        scaledDown(benchmarkByName("XMLCNN-A670K"), 3000);
    narrow.hiddenDim = 64;
    narrow.candidateRatio = 0.05;
    for (const BenchmarkSpec &spec : {wide, narrow}) {
        const SyntheticModel model(spec, 40);
        const std::string shape = std::to_string(spec.categories) + "x"
            + std::to_string(spec.hiddenDim) + " ";
        sim::Rng rng(41);
        std::vector<std::vector<float>> queries;
        for (int q = 0; q < 8; ++q)
            queries.push_back(model.sampleQuery(rng));
        expectCalibrationExact(model.weights(), spec, queries,
                               shape + "iid");

        numeric::FloatMatrix tiled(spec.categories, spec.hiddenDim);
        numeric::FloatMatrix single(spec.categories, spec.hiddenDim);
        for (std::size_t r = 0; r < spec.categories; ++r) {
            for (std::size_t c = 0; c < spec.hiddenDim; ++c) {
                tiled.at(r, c) = model.weights().at(r % 7, c);
                single.at(r, c) = model.weights().at(0, c);
            }
        }
        expectCalibrationExact(tiled, spec, queries, shape + "tiled");
        std::vector<std::vector<float>> scaled;
        for (int q = 0; q < 8; ++q) {
            scaled.push_back(queries[0]);
            for (float &v : scaled.back())
                v *= 1.0f + static_cast<float>(q) * 0x1p-20f;
        }
        expectCalibrationExact(single, spec, scaled,
                               shape + "one row, scaled queries");

        const std::vector<float> zero(spec.hiddenDim, 0.0f);
        expectCalibrationExact(model.weights(), spec,
                               std::vector<std::vector<float>>(3, zero),
                               shape + "all-zero");
        std::vector<std::vector<float>> mixed(6, zero);
        mixed.push_back(queries[1]);
        mixed.push_back(queries[2]);
        BenchmarkSpec half = spec;
        half.candidateRatio = 0.5;
        expectCalibrationExact(model.weights(), half, mixed,
                               shape + "zeros mixed in");
    }
}

TEST(Screener, RowMassesMatchMatrixDimensions)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 9);
    const Screener screener(model.weights(), spec, 10);
    const std::vector<double> masses = screener.rowAbsMasses();
    EXPECT_EQ(masses.size(), spec.categories);
    for (const double m : masses)
        EXPECT_GE(m, 0.0);
}

TEST(ApproximateClassifier, ScreeningRecallIsHigh)
{
    // The paper's core algorithmic claim: screening at ~10%
    // candidates loses (almost) no top-k accuracy.  The learned
    // projection is played by the weight manifold's basis.
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 11);
    const ApproximateClassifier classifier(model.weights(), spec,
                                           12, &model.basis());
    sim::Rng rng(13);
    double recall_sum = 0.0;
    const int queries = 10;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto exact = classifier.exact(query, 5);
        const auto approx = classifier.predict(query, 5);
        recall_sum += recall(exact.topCategories,
                             approx.topCategories);
    }
    EXPECT_GE(recall_sum / queries, 0.9);
}

TEST(ApproximateClassifier, Top1IsStable)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 14);
    const ApproximateClassifier classifier(model.weights(), spec,
                                           15, &model.basis());
    sim::Rng rng(16);
    int matches = 0;
    const int queries = 10;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto exact = classifier.exact(query, 1);
        const auto approx = classifier.predict(query, 1);
        matches += exact.topCategories == approx.topCategories;
    }
    EXPECT_GE(matches, 8);
}

TEST(ApproximateClassifier, CandidateCountMatchesRatio)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 17);
    const ApproximateClassifier classifier(model.weights(), spec,
                                           18);
    sim::Rng rng(19);
    const std::vector<float> query = model.sampleQuery(rng);
    const auto approx = classifier.predict(query, 5);
    EXPECT_EQ(approx.candidateCount,
              static_cast<std::size_t>(spec.categories
                                       * spec.candidateRatio));
    const auto exact = classifier.exact(query, 5);
    EXPECT_EQ(exact.candidateCount, spec.categories);
}

TEST(CandidateClassifier, Cfp32MatchesFp32Datapath)
{
    // Section 4.2's "no classification accuracy drop": the CFP32
    // alignment-free path must produce the same ranking as FP32.
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 20);
    const CandidateClassifier classifier(model.weights());
    sim::Rng rng(21);
    const std::vector<float> query = model.sampleQuery(rng);

    std::vector<std::uint64_t> candidates;
    for (std::uint64_t r = 0; r < 64; ++r)
        candidates.push_back(r * 16);

    const std::vector<double> fp32 = classifier.scores(
        query, candidates, CandidateClassifier::Datapath::Fp32);
    const std::vector<double> cfp32 = classifier.scores(
        query, candidates,
        CandidateClassifier::Datapath::Cfp32AlignmentFree);
    ASSERT_EQ(fp32.size(), cfp32.size());
    for (std::size_t i = 0; i < fp32.size(); ++i)
        EXPECT_NEAR(cfp32[i], fp32[i],
                    1e-3 * std::max(1.0, std::fabs(fp32[i])));

    // Rankings agree.
    const auto top_fp32 =
        topKIndices(std::span<const double>(fp32), 5);
    const auto top_cfp32 =
        topKIndices(std::span<const double>(cfp32), 5);
    EXPECT_GE(recall(top_fp32, top_cfp32), 0.8);
}

TEST(CandidateClassifier, Cfp32ScoresMatchAlignmentFreeMacEveryLevel)
{
    // The slab re-rank keeps every score's bits: the same integer and
    // the same normalization as AlignmentFreeMac::dot, at every level
    // and pool size.
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 31);
    sim::Rng rng(32);
    const std::vector<float> query = model.sampleQuery(rng);
    const numeric::Cfp32Vector aligned_query =
        numeric::Cfp32Vector::preAlign(query);
    std::vector<std::uint64_t> candidates;
    for (std::uint64_t r = 0; r < spec.categories; r += 3)
        candidates.push_back(r);
    std::vector<double> want;
    for (const std::uint64_t r : candidates)
        want.push_back(numeric::AlignmentFreeMac::dot(
                           numeric::Cfp32Vector::preAlign(
                               model.weights().row(r)),
                           aligned_query)
                           .value);

    sim::ThreadPool pool(3);
    const numeric::IsaLevel found = numeric::activeIsa();
    for (const numeric::IsaLevel isa : numeric::supportedIsaLevels()) {
        SCOPED_TRACE(numeric::toString(isa));
        numeric::setActiveIsa(isa);
        for (sim::ThreadPool *p : {static_cast<sim::ThreadPool *>(nullptr),
                                   &pool}) {
            const CandidateClassifier classifier(model.weights(), p);
            const std::vector<double> got = classifier.scores(
                query, candidates,
                CandidateClassifier::Datapath::Cfp32AlignmentFree);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)),
                          0)
                    << "candidate " << candidates[i];
        }
    }
    numeric::setActiveIsa(found);
}

TEST(CandidateClassifier, RowsPastTheExactSlabDotAreFatal)
{
    const numeric::FloatMatrix ok(1, numeric::kCfp32SlabMaxDim);
    EXPECT_NO_THROW(CandidateClassifier{ok});
    const numeric::FloatMatrix too_long(1,
                                        numeric::kCfp32SlabMaxDim + 1);
    EXPECT_THROW(CandidateClassifier{too_long}, sim::FatalError);
}

TEST(ApproximateClassifier, ThresholdModeRespectsSetThreshold)
{
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 22);
    ApproximateClassifier classifier(model.weights(), spec, 23);
    sim::Rng rng(24);
    const std::vector<float> query = model.sampleQuery(rng);

    classifier.screener().setThreshold(-1e30);
    const auto all = classifier.screener().screen(
        query, FilterMode::Threshold);
    EXPECT_EQ(all.size(), spec.categories); // everything passes

    classifier.screener().setThreshold(1e30);
    const auto none = classifier.screener().screen(
        query, FilterMode::Threshold);
    EXPECT_TRUE(none.empty());
}

TEST(ApproximateClassifier, RandomProjectionIsWeakerThanTrained)
{
    // The substitution note of DESIGN.md, verified: a random (JL)
    // projection at K = D/4 screens worse than the learned one.
    const BenchmarkSpec spec = smallSpec();
    const SyntheticModel model(spec, 25);
    const ApproximateClassifier trained(model.weights(), spec, 26,
                                        &model.basis());
    const ApproximateClassifier random(model.weights(), spec, 26);
    sim::Rng rng(27);
    double trained_recall = 0.0, random_recall = 0.0;
    const int queries = 8;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto exact = trained.exact(query, 5);
        trained_recall += recall(
            exact.topCategories,
            trained.predict(query, 5).topCategories);
        random_recall += recall(
            exact.topCategories,
            random.predict(query, 5).topCategories);
    }
    EXPECT_GE(trained_recall, random_recall);
    EXPECT_GE(trained_recall / queries, 0.9);
}

TEST(ApproximateClassifier, RecallImprovesWithCandidateRatio)
{
    BenchmarkSpec narrow = smallSpec();
    narrow.candidateRatio = 0.05;
    BenchmarkSpec wide = smallSpec();
    wide.candidateRatio = 0.30;
    const SyntheticModel model(narrow, 28);
    const ApproximateClassifier tight(model.weights(), narrow, 29);
    const ApproximateClassifier loose(model.weights(), wide, 29);
    sim::Rng rng(30);
    double tight_recall = 0.0, loose_recall = 0.0;
    const int queries = 8;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto exact = tight.exact(query, 5);
        tight_recall += recall(
            exact.topCategories,
            tight.predict(query, 5).topCategories);
        loose_recall += recall(
            exact.topCategories,
            loose.predict(query, 5).topCategories);
    }
    EXPECT_GE(loose_recall + 1e-9, tight_recall);
}
