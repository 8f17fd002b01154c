/**
 * @file
 * Workload generation tests: Table 3 shapes, synthetic model
 * structure, and the trace-tier candidate generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <set>

#include "sim/logging.hh"
#include "xclass/workload.hh"

using namespace ecssd::xclass;

TEST(BenchmarkSpec, Table3HasSevenEntries)
{
    const std::vector<BenchmarkSpec> specs = table3Benchmarks();
    ASSERT_EQ(specs.size(), 7u);
    EXPECT_EQ(specs[0].name, "GNMT-E32K");
    EXPECT_EQ(specs[0].categories, 32317u);
    EXPECT_EQ(specs[1].hiddenDim, 1500u);
    EXPECT_EQ(specs[6].categories, 100000000u);
}

TEST(BenchmarkSpec, ShrunkDimIsQuarter)
{
    const BenchmarkSpec spec = benchmarkByName("XMLCNN-S100M");
    EXPECT_EQ(spec.shrunkDim(), 256u);
}

TEST(BenchmarkSpec, S100MFootprintsMatchSection61)
{
    // Section 6.1: XMLCNN-S100M has 12.8 GB / 400 GB weight
    // matrices.
    const BenchmarkSpec spec = benchmarkByName("XMLCNN-S100M");
    EXPECT_EQ(spec.int4WeightBytes(), 12800000000ULL);
    EXPECT_EQ(spec.fp32WeightBytes(), 409600000000ULL);
}

TEST(BenchmarkSpec, UnknownNameIsFatal)
{
    EXPECT_THROW(benchmarkByName("bogus"), ecssd::sim::FatalError);
}

TEST(BenchmarkSpec, LargeScaleSetIsTheSynthTrio)
{
    const std::vector<BenchmarkSpec> large =
        largeScaleBenchmarks();
    ASSERT_EQ(large.size(), 3u);
    EXPECT_EQ(large[0].categories, 10000000u);
    EXPECT_EQ(large[2].categories, 100000000u);
}

TEST(BenchmarkSpec, ScaledDownPreservesRatios)
{
    const BenchmarkSpec spec = benchmarkByName("XMLCNN-S10M");
    const BenchmarkSpec scaled = scaledDown(spec, 4096);
    EXPECT_EQ(scaled.categories, 4096u);
    EXPECT_EQ(scaled.hiddenDim, spec.hiddenDim);
    EXPECT_EQ(scaled.projectionScale, spec.projectionScale);
    EXPECT_NE(scaled.name, spec.name);
    // No-op when already small enough.
    const BenchmarkSpec same = scaledDown(scaled, 1 << 20);
    EXPECT_EQ(same.categories, 4096u);
}

TEST(SyntheticModel, ShapesMatchSpec)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 512);
    const SyntheticModel model(spec, 1);
    EXPECT_EQ(model.weights().rows(), 512u);
    EXPECT_EQ(model.weights().cols(), 1024u);
    EXPECT_EQ(model.popularityRank().size(), 512u);
}

TEST(SyntheticModel, PopularityRanksAreAPermutation)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 256);
    const SyntheticModel model(spec, 2);
    std::set<std::uint32_t> ranks(model.popularityRank().begin(),
                                  model.popularityRank().end());
    EXPECT_EQ(ranks.size(), 256u);
    EXPECT_EQ(*ranks.begin(), 0u);
    EXPECT_EQ(*ranks.rbegin(), 255u);
}

TEST(SyntheticModel, PopularRowsHaveLargerNorms)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    const SyntheticModel model(spec, 3);
    double head_norm = 0.0, tail_norm = 0.0;
    int head = 0, tail = 0;
    for (std::size_t r = 0; r < 1024; ++r) {
        double norm = 0.0;
        for (const float w : model.weights().row(r))
            norm += static_cast<double>(w) * w;
        if (model.popularityRank()[r] < 64) {
            head_norm += norm;
            ++head;
        } else if (model.popularityRank()[r] >= 960) {
            tail_norm += norm;
            ++tail;
        }
    }
    EXPECT_GT(head_norm / head, tail_norm / tail);
}

TEST(SyntheticModel, QueriesHaveCorrectDimension)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 128);
    spec.hiddenDim = 64;
    const SyntheticModel model(spec, 4);
    ecssd::sim::Rng rng(5);
    const std::vector<float> query = model.sampleQuery(rng);
    EXPECT_EQ(query.size(), 64u);
}

TEST(CandidateTrace, PermutationRoundTrips)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 100003); // prime-ish
    const CandidateTrace trace(spec, 6);
    for (std::uint64_t rank : {0ULL, 1ULL, 57ULL, 100002ULL}) {
        const std::uint64_t category = trace.categoryAtRank(rank);
        EXPECT_LT(category, spec.categories);
        EXPECT_EQ(trace.rankOf(category), rank);
    }
}

TEST(CandidateTrace, DrawsApproximatelyTheCandidateRatio)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 20000);
    CandidateTrace trace(spec, 7);
    const std::vector<std::uint64_t> candidates =
        trace.drawCandidates();
    const double want = spec.candidateRatio
        * static_cast<double>(spec.categories);
    EXPECT_NEAR(static_cast<double>(candidates.size()), want,
                want * 0.05);
}

TEST(CandidateTrace, CandidatesAreSortedAndUnique)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    CandidateTrace trace(spec, 8);
    const std::vector<std::uint64_t> candidates =
        trace.drawCandidates();
    EXPECT_TRUE(std::is_sorted(candidates.begin(),
                               candidates.end()));
    EXPECT_EQ(std::adjacent_find(candidates.begin(),
                                 candidates.end()),
              candidates.end());
    for (const std::uint64_t c : candidates)
        EXPECT_LT(c, spec.categories);
}

TEST(CandidateTrace, PopularCategoriesAppearMoreOften)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    CandidateTrace trace(spec, 9);
    const std::uint64_t head = trace.categoryAtRank(0);
    const std::uint64_t deep_tail = trace.categoryAtRank(9999);
    int head_hits = 0, tail_hits = 0;
    for (int batch = 0; batch < 20; ++batch) {
        const std::vector<std::uint64_t> candidates =
            trace.drawCandidates();
        head_hits += std::binary_search(candidates.begin(),
                                        candidates.end(), head);
        tail_hits += std::binary_search(candidates.begin(),
                                        candidates.end(),
                                        deep_tail);
    }
    EXPECT_GT(head_hits, tail_hits);
    EXPECT_GE(head_hits, 18); // the head is a near-certain candidate
}

TEST(CandidateTrace, OracleHotnessFollowsRank)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    const CandidateTrace trace(spec, 10, /*predictor_noise=*/0.0);
    // Ranks inside the hot set share the top mass; beyond it the
    // mass decays with rank.
    const double head = trace.hotness(trace.categoryAtRank(0));
    const double mid = trace.hotness(
        trace.categoryAtRank(trace.hotSetSize() + 100));
    const double tail = trace.hotness(trace.categoryAtRank(9999));
    EXPECT_GT(head, mid);
    EXPECT_GT(mid, tail);
}

TEST(CandidateTrace, NoisyHotnessStaysCorrelated)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    const CandidateTrace trace(spec, 11, /*predictor_noise=*/0.25);
    double head_sum = 0.0, tail_sum = 0.0;
    for (std::uint64_t i = 0; i < 100; ++i) {
        head_sum += trace.hotness(trace.categoryAtRank(i));
        tail_sum += trace.hotness(trace.categoryAtRank(9899 + i));
    }
    EXPECT_GT(head_sum, tail_sum * 5);
}

TEST(CandidateTrace, HotnessIsDeterministicPerCategory)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 1000);
    const CandidateTrace trace(spec, 12);
    for (std::uint64_t c = 0; c < 50; ++c)
        EXPECT_DOUBLE_EQ(trace.hotness(c), trace.hotness(c));
}

/** Feistel bijection property over assorted category counts,
 *  including odd and power-of-two-adjacent sizes (cycle-walking). */
class FeistelSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FeistelSweep, RankCategoryBijection)
{
    BenchmarkSpec spec = benchmarkByName("XMLCNN-S10M");
    spec.categories = GetParam();
    const CandidateTrace trace(spec, 3);
    std::set<std::uint64_t> seen;
    const std::uint64_t probe =
        std::min<std::uint64_t>(spec.categories, 4096);
    for (std::uint64_t rank = 0; rank < probe; ++rank) {
        const std::uint64_t category = trace.categoryAtRank(rank);
        ASSERT_LT(category, spec.categories);
        ASSERT_TRUE(seen.insert(category).second)
            << "collision at rank " << rank;
        ASSERT_EQ(trace.rankOf(category), rank);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FeistelSweep,
                         ::testing::Values(2u, 3u, 255u, 256u, 257u,
                                           1023u, 4096u, 65537u,
                                           1000003u));

TEST(CandidateTrace, HotSetScattersAcrossChannelsAndResidues)
{
    // The hot set must not be an arithmetic progression: its
    // residues modulo the channel count should be multinomially
    // spread, not equal.
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 65536);
    const CandidateTrace trace(spec, 4);
    std::vector<int> residues(8, 0);
    const std::uint64_t hot = trace.hotSetSize();
    for (std::uint64_t rank = 0; rank < hot; ++rank)
        ++residues[trace.categoryAtRank(rank) % 8];
    int distinct_counts = 0;
    for (int c = 1; c < 8; ++c)
        distinct_counts += residues[c] != residues[0];
    // A Feistel image virtually never lands perfectly balanced.
    EXPECT_GT(distinct_counts, 0);
    // ...but it is also not degenerate: every residue is populated.
    for (const int count : residues)
        EXPECT_GT(count, 0);
}

TEST(CandidateTrace, StickyTailPersistsAcrossBatches)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 20000);
    CandidateTrace trace(spec, 5);
    const std::vector<std::uint64_t> &sticky = trace.stickyTail();
    ASSERT_FALSE(sticky.empty());
    // Across batches, at least (1 - churn) of the sticky tail is
    // always present.
    for (int batch = 0; batch < 5; ++batch) {
        const std::vector<std::uint64_t> candidates =
            trace.drawCandidates();
        std::size_t present = 0;
        for (const std::uint64_t category : sticky)
            present += std::binary_search(candidates.begin(),
                                          candidates.end(),
                                          category);
        EXPECT_GE(static_cast<double>(present)
                      / static_cast<double>(sticky.size()),
                  1.0 - spec.candidateChurn - 0.02);
    }
}

namespace
{

/** FNV-1a over 64-bit words: a compact pin for long id streams. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::vector<std::uint64_t> &words)
    {
        add(words.size());
        for (const std::uint64_t word : words)
            add(word);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Digest of everything a trace exposes: its sticky tail, five
 *  candidate batches and the hotness of the first 5000 ids. */
std::uint64_t
traceDigest(std::uint64_t categories, std::uint64_t seed, double noise)
{
    BenchmarkSpec spec = benchmarkByName("XMLCNN-S10M");
    spec.categories = categories;
    CandidateTrace trace(spec, seed, noise);
    Digest digest;
    digest.add(trace.stickyTail());
    for (int batch = 0; batch < 5; ++batch)
        digest.add(trace.drawCandidates());
    const std::uint64_t probe =
        std::min<std::uint64_t>(categories, 5000);
    for (std::uint64_t category = 0; category < probe; ++category)
        digest.add(std::bit_cast<std::uint64_t>(
            trace.hotness(category)));
    return digest.value();
}

struct PinnedTrace
{
    std::uint64_t categories;
    std::uint64_t seed;
    double noise;
    std::uint64_t digest;
};

// Pinned trace contents: any change to a drawn id, an RNG draw or a
// hotness bit is a behaviour change of every trace-driven experiment,
// never a golden refresh.
const PinnedTrace kPinnedTraces[] = {
    {2, 1, 0.0, 0xe4a1ffb49bd7a8a0ULL},
    {2, 1, 0.25, 0x6449d7808c86f1a6ULL},
    {2, 2, 0.0, 0xe4a1ffb49bd7a8a0ULL},
    {2, 2, 0.25, 0x35205416e85984dbULL},
    {2, 42, 0.0, 0xac2632c1e26509f0ULL},
    {2, 42, 0.25, 0x406a8b1b7366121cULL},
    {2, 12345, 0.0, 0xaacf2fb3227ab980ULL},
    {2, 12345, 0.25, 0x8834f90dea36878cULL},
    {3, 1, 0.0, 0xe74aab87cbef3fc3ULL},
    {3, 1, 0.25, 0xec7437618a3022e2ULL},
    {3, 2, 0.0, 0xe74aab87cbef3fc3ULL},
    {3, 2, 0.25, 0x35033e07a275876fULL},
    {3, 42, 0.0, 0x18321f4821e26bfbULL},
    {3, 42, 0.25, 0x4357b8f5ce9c957bULL},
    {3, 12345, 0.0, 0x8421ed376d493dfbULL},
    {3, 12345, 0.25, 0x53b32e64693d0f4cULL},
    {17, 1, 0.0, 0x507052b16c3e474ULL},
    {17, 1, 0.25, 0x69460f5c97a2107fULL},
    {17, 2, 0.0, 0x3919ecfb45942c94ULL},
    {17, 2, 0.25, 0x56928fbfd21b816cULL},
    {17, 42, 0.0, 0x61b4ee1167685a0dULL},
    {17, 42, 0.25, 0x567ab3ea476687ebULL},
    {17, 12345, 0.0, 0xc1beffe946e9eb20ULL},
    {17, 12345, 0.25, 0x4a479a4bdbceeb20ULL},
    {1000, 1, 0.0, 0x10ee85fee1596095ULL},
    {1000, 1, 0.25, 0xddcad1c36c0f968aULL},
    {1000, 2, 0.0, 0x99a28ab12ec6d08dULL},
    {1000, 2, 0.25, 0x102d3e5267dc1a0dULL},
    {1000, 42, 0.0, 0x7f41c6a827ab698dULL},
    {1000, 42, 0.25, 0x9d2b4fe002a5c525ULL},
    {1000, 12345, 0.0, 0x7061c0bb20c6aed3ULL},
    {1000, 12345, 0.25, 0x1653d5db9c910cafULL},
    {10007, 1, 0.0, 0x972ad65a0d1c14a0ULL},
    {10007, 1, 0.25, 0x61365311906bd7fcULL},
    {10007, 2, 0.0, 0xd0c1ec4e28f75793ULL},
    {10007, 2, 0.25, 0xa0d133fc5f59defaULL},
    {10007, 42, 0.0, 0x3ed145afaab72b0bULL},
    {10007, 42, 0.25, 0x2b57d65e006677b8ULL},
    {10007, 12345, 0.0, 0x2034e522b6cb8bffULL},
    {10007, 12345, 0.25, 0xdb29848ee1ee2ad6ULL},
    {65536, 1, 0.0, 0x38b5cdf902d5760eULL},
    {65536, 1, 0.25, 0xbfcc0283b9a98946ULL},
    {65536, 2, 0.0, 0x37bb1f5cfe2ba726ULL},
    {65536, 2, 0.25, 0xc9b2e9cc51206393ULL},
    {65536, 42, 0.0, 0x482f820760645638ULL},
    {65536, 42, 0.25, 0xc324a740135075e8ULL},
    {65536, 12345, 0.0, 0x5041946e9deb74feULL},
    {65536, 12345, 0.25, 0xd4782048c750a7d4ULL},
    {200000, 1, 0.0, 0x66065c4703f57fc4ULL},
    {200000, 1, 0.25, 0xacf4c989b490d90fULL},
    {200000, 2, 0.0, 0xe1c9d60dd7cccc68ULL},
    {200000, 2, 0.25, 0xe17b1e5d1bf2ea4ULL},
    {200000, 42, 0.0, 0x6533bb6fac761ba2ULL},
    {200000, 42, 0.25, 0x25a3a6637adf8c02ULL},
    {200000, 12345, 0.0, 0x22a6cfd005f7fe99ULL},
    {200000, 12345, 0.25, 0x471280eb4ee628aeULL},
    {1000003, 1, 0.0, 0xad4cf5cd7c442c55ULL},
    {1000003, 1, 0.25, 0xbb68dd74dba20d04ULL},
    {1000003, 2, 0.0, 0x24112776f74abd96ULL},
    {1000003, 2, 0.25, 0x75e3a53b7f5818c5ULL},
    {1000003, 42, 0.0, 0xcc650b84037ead35ULL},
    {1000003, 42, 0.25, 0xf8c29021fbb39ed0ULL},
    {1000003, 12345, 0.0, 0x376bf1215be180a6ULL},
    {1000003, 12345, 0.25, 0xd12fb71ffdb574b9ULL},
};

} // namespace

TEST(CandidateTrace, DrawsMatchPinnedDigests)
{
    for (const PinnedTrace &pin : kPinnedTraces) {
        const std::uint64_t digest =
            traceDigest(pin.categories, pin.seed, pin.noise);
        EXPECT_EQ(digest, pin.digest)
            << "L=" << pin.categories << " seed=" << pin.seed
            << " noise=" << pin.noise << std::hex << " digest=0x"
            << digest;
    }
}

TEST(CandidateTrace, FullScaleS100MDraw)
{
    // One full-size XMLCNN-S100M batch: 10M strictly ascending ids
    // over the whole 100M-category space, hot head included.
    CandidateTrace trace(benchmarkByName("XMLCNN-S100M"), 1);
    const std::uint64_t categories = trace.spec().categories;
    const std::vector<std::uint64_t> candidates =
        trace.drawCandidates();
    ASSERT_EQ(candidates.size(), categories / 10);
    ASSERT_LT(candidates.back(), categories);
    EXPECT_EQ(std::adjacent_find(candidates.begin(), candidates.end(),
                                 std::greater_equal<>()),
              candidates.end());
    std::vector<bool> drawn(categories);
    for (const std::uint64_t category : candidates)
        drawn[category] = true;
    std::uint64_t missing_hot = 0;
    for (std::uint64_t rank = 0; rank < trace.hotSetSize(); ++rank)
        missing_hot += !drawn[trace.categoryAtRank(rank)];
    EXPECT_EQ(missing_hot, 0u);
}
