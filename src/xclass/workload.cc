#include "workload.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"

namespace ecssd
{
namespace xclass
{

namespace
{

BenchmarkSpec
makeSpec(const std::string &name, std::uint64_t categories,
         std::uint32_t hidden_dim)
{
    BenchmarkSpec spec;
    spec.name = name;
    spec.categories = categories;
    spec.hiddenDim = hidden_dim;
    return spec;
}

/** Splitmix-style 64-bit mix for Feistel round functions. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic per-key uniform double in [0,1) (splitmix-style). */
double
hashUniform(std::uint64_t key, std::uint64_t salt)
{
    std::uint64_t z = key + salt + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/** Candidates per batch: categories * candidateRatio, at least 1. */
std::uint64_t
candidateBudget(const BenchmarkSpec &spec)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(spec.categories)
               * spec.candidateRatio));
}

bool
testBit(const std::vector<std::uint64_t> &bits, std::uint64_t id)
{
    return (bits[id >> 6] >> (id & 63)) & 1;
}

void
setBit(std::vector<std::uint64_t> &bits, std::uint64_t id)
{
    bits[id >> 6] |= 1ULL << (id & 63);
}

/** Clear @p id's bit; true when it was set. */
bool
testAndClearBit(std::vector<std::uint64_t> &bits, std::uint64_t id)
{
    std::uint64_t &word = bits[id >> 6];
    const std::uint64_t mask = 1ULL << (id & 63);
    const bool was_set = (word & mask) != 0;
    word &= ~mask;
    return was_set;
}

/** Append the ids of @p bits' set bits to @p out, ascending. */
void
appendSetBits(const std::vector<std::uint64_t> &bits,
              std::vector<std::uint64_t> &out)
{
    for (std::size_t w = 0; w < bits.size(); ++w)
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
            out.push_back(w * 64 + static_cast<std::uint64_t>(
                                       std::countr_zero(word)));
}

} // namespace

std::vector<BenchmarkSpec>
table3Benchmarks()
{
    // Shapes from Table 3 plus the hidden sizes given in Section 6.1.
    std::vector<BenchmarkSpec> specs;
    specs.push_back(makeSpec("GNMT-E32K", 32317, 1024));
    specs.push_back(makeSpec("LSTM-W33K", 33278, 1500));
    specs.push_back(makeSpec("Transformer-W268K", 267744, 512));
    specs.push_back(makeSpec("XMLCNN-A670K", 670091, 512));
    specs.push_back(makeSpec("XMLCNN-S10M", 10000000, 1024));
    specs.push_back(makeSpec("XMLCNN-S50M", 50000000, 1024));
    specs.push_back(makeSpec("XMLCNN-S100M", 100000000, 1024));
    return specs;
}

BenchmarkSpec
benchmarkByName(const std::string &name)
{
    for (const BenchmarkSpec &spec : table3Benchmarks())
        if (spec.name == name)
            return spec;
    sim::fatal("unknown benchmark '", name, "'");
}

std::vector<BenchmarkSpec>
largeScaleBenchmarks()
{
    return {benchmarkByName("XMLCNN-S10M"),
            benchmarkByName("XMLCNN-S50M"),
            benchmarkByName("XMLCNN-S100M")};
}

BenchmarkSpec
scaledDown(const BenchmarkSpec &spec, std::uint64_t max_categories)
{
    BenchmarkSpec scaled = spec;
    if (scaled.categories > max_categories) {
        scaled.categories = max_categories;
        scaled.name += "-scaled";
    }
    return scaled;
}

SyntheticModel::SyntheticModel(const BenchmarkSpec &spec,
                               std::uint64_t seed)
    : spec_(spec), weights_(spec.categories, spec.hiddenDim),
      basis_(spec.shrunkDim(), spec.hiddenDim),
      popularityRank_(spec.categories)
{
    ECSSD_ASSERT(spec.categories * spec.hiddenDim
                     <= (1ULL << 28),
                 "SyntheticModel shape too large for functional tier; "
                 "use CandidateTrace");
    sim::Rng rng(seed);

    // Random popularity order over categories.
    rankToCategory_ =
        rng.permutation(static_cast<std::uint32_t>(spec.categories));
    for (std::uint32_t rank = 0;
         rank < static_cast<std::uint32_t>(spec.categories); ++rank)
        popularityRank_[rankToCategory_[rank]] = rank;

    // Orthonormal K x D basis (Gram-Schmidt on Gaussian rows).
    const std::size_t k = basis_.rows();
    const std::size_t d = basis_.cols();
    for (std::size_t i = 0; i < k; ++i) {
        std::span<float> row = basis_.row(i);
        for (float &v : row)
            v = static_cast<float>(rng.gaussian());
        for (std::size_t j = 0; j < i; ++j) {
            const std::span<const float> prev = basis_.row(j);
            double dot = 0.0;
            for (std::size_t c = 0; c < d; ++c)
                dot += static_cast<double>(row[c]) * prev[c];
            for (std::size_t c = 0; c < d; ++c)
                row[c] -= static_cast<float>(dot * prev[c]);
        }
        double norm = 0.0;
        for (const float v : row)
            norm += static_cast<double>(v) * v;
        norm = std::sqrt(std::max(norm, 1e-30));
        for (float &v : row)
            v = static_cast<float>(v / norm);
    }

    // Weights live near the K-dimensional manifold spanned by the
    // basis (as trained classifier layers do), with a small
    // off-manifold residual.  Row norms decay with popularity rank:
    // frequent categories have larger weight vectors, which is the
    // signal the hot-degree predictor exploits.
    std::vector<double> latent(k);
    for (std::size_t r = 0; r < spec.categories; ++r) {
        const double rank = popularityRank_[r];
        const double norm_scale =
            1.0 / std::pow(1.0 + rank, 0.15);
        for (double &u : latent)
            u = rng.gaussian(0.0, 0.05 * norm_scale)
                * std::sqrt(static_cast<double>(d));
        std::span<float> row = weights_.row(r);
        for (std::size_t c = 0; c < d; ++c) {
            double acc = 0.0;
            for (std::size_t i = 0; i < k; ++i)
                acc += latent[i] * basis_.at(i, c);
            // 10% off-manifold residual energy.
            acc += rng.gaussian(0.0, 0.015 * norm_scale);
            row[c] = static_cast<float>(acc);
        }
    }
}

std::vector<float>
SyntheticModel::sampleQuery(sim::Rng &rng) const
{
    // Pick a target category by popularity, then emit a noisy copy of
    // its weight row so true top-k structure exists.
    const std::uint64_t rank =
        rng.zipf(spec_.categories, spec_.popularitySkew);
    const std::uint64_t target = rankToCategory_[rank];
    const std::span<const float> row = weights_.row(target);
    std::vector<float> query(row.begin(), row.end());
    for (float &q : query)
        q = static_cast<float>(q + rng.gaussian(0.0, 0.3 * std::fabs(q)
                                                    + 0.01));
    return query;
}

CandidateTrace::CandidateTrace(const BenchmarkSpec &spec,
                               std::uint64_t seed,
                               double predictor_noise)
    : spec_(spec), rng_(seed), predictorNoise_(predictor_noise)
{
    ECSSD_ASSERT(spec.categories > 1, "trace needs > 1 category");
    // Keyed Feistel bijection over the next power of two, with
    // cycle-walking back into [0, L).  Unlike an affine map, the
    // image of a rank interval is statistically random, so the hot
    // set scatters over the id space the way real category ids do.
    halfBits_ = 1;
    while ((1ULL << (2 * halfBits_)) < spec.categories)
        ++halfBits_;
    for (auto &key : feistelKeys_)
        key = rng_.next();
    noiseSalt_ = rng_.next();

    // Build the sticky tail: the mid-popularity categories that keep
    // clearing the screening threshold batch after batch (and that
    // the training set therefore reveals to the predictor).  The
    // scratch bitmap marks the draws so far; a word scan then lists
    // them in ascending order.
    const std::uint64_t want = candidateBudget(spec);
    const std::uint64_t hot = std::min(hotSetSize(), want);
    const std::uint64_t tail_count = want - hot;
    drawBits_.assign((spec.categories + 63) / 64, 0);
    for (std::uint64_t drawn = 0; drawn < tail_count; ++drawn)
        setBit(drawBits_, drawTailCategory(drawBits_));
    stickyTail_.reserve(tail_count);
    appendSetBits(drawBits_, stickyTail_);

    // Every batch starts from the sticky tail plus the hot head, so
    // the head goes through the bijection here, once.
    baseBits_ = drawBits_;
    for (std::uint64_t rank = 0; rank < hot; ++rank)
        setBit(baseBits_, categoryAtRank(rank));
}

std::uint64_t
CandidateTrace::drawTailCategory(
    const std::vector<std::uint64_t> &taken)
{
    const std::uint64_t hot = hotSetSize();
    const std::uint64_t tail_ranks = spec_.categories - hot;
    for (;;) {
        const std::uint64_t rank =
            hot + rng_.zipf(tail_ranks, spec_.popularitySkew);
        const std::uint64_t category = categoryAtRank(rank);
        if (!testBit(taken, category))
            return category;
    }
}

std::uint64_t
CandidateTrace::hashRound(std::uint64_t half, std::uint64_t key)
{
    return mix64(half ^ key);
}

std::uint64_t
CandidateTrace::feistelForward(std::uint64_t value) const
{
    const std::uint64_t half_mask = (1ULL << halfBits_) - 1;
    std::uint64_t left = value >> halfBits_;
    std::uint64_t right = value & half_mask;
    for (const std::uint64_t key : feistelKeys_) {
        const std::uint64_t f =
            hashRound(right, key) & half_mask;
        const std::uint64_t new_left = right;
        right = left ^ f;
        left = new_left;
    }
    return (left << halfBits_) | right;
}

std::uint64_t
CandidateTrace::feistelBackward(std::uint64_t value) const
{
    const std::uint64_t half_mask = (1ULL << halfBits_) - 1;
    std::uint64_t left = value >> halfBits_;
    std::uint64_t right = value & half_mask;
    for (auto it = feistelKeys_.rbegin(); it != feistelKeys_.rend();
         ++it) {
        const std::uint64_t f = hashRound(left, *it) & half_mask;
        const std::uint64_t new_right = left;
        left = right ^ f;
        right = new_right;
    }
    return (left << halfBits_) | right;
}

std::uint64_t
CandidateTrace::categoryAtRank(std::uint64_t rank) const
{
    ECSSD_ASSERT(rank < spec_.categories, "rank out of range");
    // Cycle-walk: apply the bijection over the power-of-two domain
    // until the image falls back inside [0, L).
    std::uint64_t value = feistelForward(rank);
    while (value >= spec_.categories)
        value = feistelForward(value);
    return value;
}

std::uint64_t
CandidateTrace::rankOf(std::uint64_t category) const
{
    ECSSD_ASSERT(category < spec_.categories, "category out of range");
    std::uint64_t value = feistelBackward(category);
    while (value >= spec_.categories)
        value = feistelBackward(value);
    return value;
}

double
CandidateTrace::hotness(std::uint64_t category) const
{
    // Fine-tuned hot degree: the hot head is candidate in ~every
    // batch (mass ~4), the sticky tail in most batches (mass ~1),
    // and everything else decays with popularity rank.
    // Multiplicative noise stands in for predictor error.
    const std::uint64_t rank = rankOf(category);
    double mass;
    if (rank < hotSetSize()) {
        mass = 4.0;
    } else if (testBit(baseBits_, category)) {
        // Past the head, a base bit can only be a sticky member.
        mass = 1.0 - spec_.candidateChurn;
    } else {
        mass = std::pow(static_cast<double>(rank) + 1.0,
                        -spec_.popularitySkew);
    }
    if (predictorNoise_ <= 0.0)
        return mass;
    const double u = hashUniform(category, noiseSalt_);
    // Map u to a symmetric multiplicative factor exp(noise * z) with
    // z in [-1.73, 1.73] (uniform-approx of a unit-variance draw).
    const double z = (u - 0.5) * 3.464;
    return mass * std::exp(predictorNoise_ * z);
}

std::uint64_t
CandidateTrace::hotSetSize() const
{
    return static_cast<std::uint64_t>(
        static_cast<double>(candidateBudget(spec_))
        * spec_.hotSetFraction);
}

std::vector<std::uint64_t>
CandidateTrace::drawCandidates()
{
    // Every batch starts from the deterministic hot head (categories
    // that clear the screening threshold for essentially every query
    // batch) plus the whole sticky tail.
    const std::uint64_t want = candidateBudget(spec_);
    const std::uint64_t hot = std::min(hotSetSize(), want);
    drawBits_ = baseBits_; // same size: copies words, no allocation

    // This batch's churn: a random candidateChurn fraction of the
    // sticky members (distinct draws) is replaced by fresh
    // popularity-biased draws.
    const std::uint64_t churn = static_cast<std::uint64_t>(
        static_cast<double>(stickyTail_.size())
        * spec_.candidateChurn);
    std::uint64_t dropped = 0;
    while (dropped < churn && !stickyTail_.empty())
        dropped += testAndClearBit(
            drawBits_,
            stickyTail_[rng_.uniformInt(stickyTail_.size())]);
    std::uint64_t chosen = hot + stickyTail_.size() - dropped;
    for (; chosen < want && spec_.categories > hot; ++chosen)
        setBit(drawBits_, drawTailCategory(drawBits_));

    std::vector<std::uint64_t> candidates;
    candidates.reserve(chosen);
    appendSetBits(drawBits_, candidates);
    return candidates;
}

} // namespace xclass
} // namespace ecssd
