/**
 * @file
 * Kernel-equivalence property tests: the byte-wise LUT kernels must
 * match the scalar nibble-by-nibble reference bit for bit — the
 * whole basis of the repo's any-thread-count golden-run contract —
 * across odd/even column counts, all-zero rows, saturated nibbles,
 * and random seeds.  Also covers the in-place packing constructor,
 * quantizeVectorInto reuse, the nth_element top-k against a
 * full-sort reference, and how an ECSSD_ISA value resolves to the
 * host-kernel level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "numeric/int4.hh"
#include "numeric/kernels.hh"
#include "numeric/matrix.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "xclass/metrics.hh"

using namespace ecssd;
using namespace ecssd::numeric;

namespace
{

FloatMatrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    FloatMatrix m(rows, cols);
    sim::Rng rng(seed);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m.at(r, c) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return m;
}

std::vector<float>
randomVector(std::size_t n, std::uint64_t seed)
{
    std::vector<float> v(n);
    sim::Rng rng(seed);
    for (float &x : v)
        x = static_cast<float>(rng.gaussian(0.0, 1.0));
    return v;
}

/** Unpack a quantized feature to the int8 layout rawDotRow eats. */
std::vector<std::int8_t>
unpackFeature(const Int4Vector &feature)
{
    std::vector<std::int8_t> out(feature.size);
    for (std::size_t i = 0; i < feature.size; ++i)
        out[i] = static_cast<std::int8_t>(unpackInt4(feature, i));
    return out;
}

/** Assert every LUT entry point matches the scalar reference on
 *  @p matrix x @p feature, bit for bit. */
void
expectKernelsMatchScalar(const Int4Matrix &matrix,
                         const Int4Vector &feature)
{
    const std::vector<std::int8_t> unpacked = unpackFeature(feature);
    std::vector<std::int16_t> widened;
    matrix.widenFeature(feature, widened);

    // Raw integer dot products: the one-row range kernel at the
    // active level vs per-nibble scalar.
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
        std::int64_t lut = 0;
        rowDotWidenedRange(matrix.packedRow(r).data(),
                           matrix.bytesPerRow(), 1, widened.data(),
                           matrix.bytesPerRow(), &lut, activeIsa());
        EXPECT_EQ(lut, matrix.rawDotRow(r, unpacked)) << "row " << r;
    }

    // Rescaled single-query kernel vs scalar dotRow — EXPECT_EQ on
    // double demands exact bits, which holds because the integer
    // accumulation is exact and the rescale expression is identical.
    std::vector<double> lut(matrix.rows());
    matrix.dotRowsLut(0, matrix.rows(), widened, feature.scale,
                      lut.data());
    for (std::size_t r = 0; r < matrix.rows(); ++r)
        EXPECT_EQ(lut[r], matrix.dotRow(r, feature)) << "row " << r;

    // Split-range calls must tile to the same answer.
    if (matrix.rows() >= 3) {
        const std::size_t mid = matrix.rows() / 3;
        std::vector<double> split(matrix.rows());
        matrix.dotRowsLut(0, mid, widened, feature.scale,
                          split.data());
        matrix.dotRowsLut(mid, matrix.rows(), widened, feature.scale,
                          split.data() + mid);
        EXPECT_EQ(split, lut);
    }
}

} // namespace

TEST(Int4Kernels, MatchScalarAcrossShapesAndSeeds)
{
    // Odd and even column counts, including cols < one byte's pair
    // and a non-multiple-of-tile row count.
    const struct
    {
        std::size_t rows, cols;
    } shapes[] = {{17, 1}, {5, 2}, {33, 7}, {64, 64}, {129, 63},
                  {40, 65}};
    for (const auto &shape : shapes) {
        for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
            const FloatMatrix source =
                randomMatrix(shape.rows, shape.cols, seed);
            const Int4Matrix matrix(source);
            const Int4Vector feature = quantizeVector(
                randomVector(shape.cols, seed + 1000));
            expectKernelsMatchScalar(matrix, feature);
        }
    }
}

TEST(Int4Kernels, MatchScalarOnAllZeroRowsAndFeature)
{
    FloatMatrix source(8, 12);
    // Rows 0/3/7 stay all-zero (scale 0); others get values.
    sim::Rng rng(3);
    for (const std::size_t r : {1ull, 2ull, 4ull, 5ull, 6ull})
        for (std::size_t c = 0; c < 12; ++c)
            source.at(r, c) =
                static_cast<float>(rng.gaussian(0.0, 2.0));
    const Int4Matrix matrix(source);
    expectKernelsMatchScalar(matrix,
                             quantizeVector(randomVector(12, 9)));
    expectKernelsMatchScalar(
        matrix, quantizeVector(std::vector<float>(12, 0.0f)));
}

TEST(Int4Kernels, MatchScalarOnSaturatedNibbles)
{
    // Alternating +/- extremes quantize to the full +/-7 range: the
    // worst-case accumulator magnitude per column.
    const std::size_t cols = 65;
    FloatMatrix source(6, cols);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            source.at(r, c) = ((r + c) % 2 == 0) ? 100.0f : -100.0f;
    const Int4Matrix matrix(source);
    std::vector<float> spikes(cols);
    for (std::size_t c = 0; c < cols; ++c)
        spikes[c] = (c % 2 == 0) ? -50.0f : 50.0f;
    expectKernelsMatchScalar(matrix, quantizeVector(spikes));
}

TEST(Int4Kernels, InPlacePackingMatchesSerialAndParallel)
{
    const FloatMatrix source = randomMatrix(301, 29, 77);
    const Int4Matrix serial(source);
    sim::ThreadPool pool(4);
    const Int4Matrix pooled(source, &pool);

    ASSERT_EQ(pooled.rows(), serial.rows());
    ASSERT_EQ(pooled.cols(), serial.cols());
    for (std::size_t r = 0; r < serial.rows(); ++r) {
        EXPECT_EQ(pooled.rowScale(r), serial.rowScale(r));
        const auto a = serial.packedRow(r);
        const auto b = pooled.packedRow(r);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
            << "row " << r;
    }
}

TEST(Int4Kernels, QuantizeVectorIntoMatchesFreshQuantize)
{
    Int4Vector reused;
    for (const std::size_t n : {1ull, 8ull, 33ull, 257ull}) {
        const std::vector<float> values = randomVector(n, 500 + n);
        const Int4Vector fresh = quantizeVector(values);
        // The reused buffer carries stale contents from the previous
        // (differently-sized) iteration — the hot-path scenario.
        quantizeVectorInto(values, reused);
        EXPECT_EQ(reused.size, fresh.size);
        EXPECT_EQ(reused.scale, fresh.scale);
        EXPECT_EQ(reused.packed, fresh.packed);
    }
}

TEST(TopK, NthElementMatchesFullSortReference)
{
    sim::Rng rng(13);
    for (unsigned trial = 0; trial < 20; ++trial) {
        std::vector<double> scores(500);
        for (double &s : scores) {
            // Coarse buckets force plenty of exact ties.
            s = std::floor(rng.uniform() * 16.0);
        }
        for (const std::size_t k : {0ull, 1ull, 10ull, 499ull,
                                    500ull, 600ull}) {
            // Full-sort reference with the same total order.
            std::vector<std::uint64_t> ref(scores.size());
            std::iota(ref.begin(), ref.end(), 0);
            std::sort(ref.begin(), ref.end(),
                      [&](std::uint64_t a, std::uint64_t b) {
                          if (scores[a] != scores[b])
                              return scores[a] > scores[b];
                          return a < b;
                      });
            ref.resize(std::min(k, scores.size()));
            EXPECT_EQ(xclass::topKIndices(
                          std::span<const double>(scores), k),
                      ref)
                << "trial " << trial << " k " << k;
        }
    }
}

namespace
{

/** The message of the sim::fatal() resolveIsa(@p value) raises, or ""
 *  when it resolves. */
std::string
resolveFailure(const char *value)
{
    try {
        resolveIsa(value);
    } catch (const sim::FatalError &error) {
        return error.what();
    }
    return "";
}

} // namespace

TEST(IsaResolution, UnsetAndAutoDetectTheBestLevel)
{
    EXPECT_EQ(resolveIsa(nullptr), detectBestIsa());
    EXPECT_EQ(resolveIsa(""), detectBestIsa());
    EXPECT_EQ(resolveIsa("auto"), detectBestIsa());
}

TEST(IsaResolution, EachLevelNameGivesItsLevelWhereSupported)
{
    // A level the host lacks is fatal; on a host that supports every
    // level that branch has nothing to check.
    for (const IsaLevel level :
         {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512}) {
        SCOPED_TRACE(toString(level));
        if (isaSupported(level)) {
            EXPECT_EQ(resolveIsa(toString(level)), level);
        } else {
            EXPECT_NE(resolveFailure(toString(level))
                          .find("E_ISA_UNSUPPORTED"),
                      std::string::npos);
        }
    }
}

TEST(IsaResolution, UnknownNamesDieWithBadIsa)
{
    for (const char *name : {"bogus", "vector", "avx1024"})
        EXPECT_NE(resolveFailure(name).find("E_BAD_ISA"),
                  std::string::npos)
            << name;
}
