/**
 * @file
 * INT4 quantization tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "numeric/int4.hh"
#include "sim/rng.hh"

using namespace ecssd::numeric;

TEST(Int4Vector, QuantizesExtremesToRangeEnds)
{
    const std::vector<float> values{7.0f, -7.0f, 0.0f};
    const Int4Vector q = quantizeVector(values);
    EXPECT_EQ(unpackInt4(q, 0), 7);
    EXPECT_EQ(unpackInt4(q, 1), -7);
    EXPECT_EQ(unpackInt4(q, 2), 0);
    EXPECT_FLOAT_EQ(q.scale, 1.0f);
}

TEST(Int4Vector, AllValuesInRange)
{
    ecssd::sim::Rng rng(1);
    std::vector<float> values(257);
    for (float &v : values)
        v = static_cast<float>(rng.gaussian(0.0, 10.0));
    const Int4Vector q = quantizeVector(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_GE(unpackInt4(q, i), int4Min);
        EXPECT_LE(unpackInt4(q, i), int4Max);
    }
}

TEST(Int4Vector, OddLengthPacksCorrectly)
{
    const std::vector<float> values{1.0f, -2.0f, 3.0f};
    const Int4Vector q = quantizeVector(values);
    EXPECT_EQ(q.size, 3u);
    EXPECT_EQ(q.packed.size(), 2u);
}

TEST(Int4Vector, AllZeroVectorHasZeroScale)
{
    const std::vector<float> values(8, 0.0f);
    const Int4Vector q = quantizeVector(values);
    EXPECT_EQ(q.scale, 0.0f);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(unpackInt4(q, i), 0);
}

TEST(Int4Vector, DequantizeBoundsError)
{
    ecssd::sim::Rng rng(2);
    std::vector<float> values(128);
    for (float &v : values)
        v = static_cast<float>(rng.uniform(-5.0, 5.0));
    const Int4Vector q = quantizeVector(values);
    const std::vector<float> back = dequantize(q);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_NEAR(back[i], values[i], q.scale / 2.0f + 1e-6f);
}

TEST(Int4Matrix, ValuesMatchPerRowQuantization)
{
    FloatMatrix m(3, 4);
    // Row scales differ: row 0 max 7, row 1 max 14, row 2 max 3.5.
    const float data[3][4] = {{7.0f, -7.0f, 3.5f, 0.0f},
                              {14.0f, 7.0f, -14.0f, 2.0f},
                              {3.5f, -3.5f, 1.75f, 0.5f}};
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            m.at(r, c) = data[r][c];

    const Int4Matrix q(m);
    EXPECT_EQ(q.rows(), 3u);
    EXPECT_EQ(q.cols(), 4u);
    EXPECT_EQ(q.valueAt(0, 0), 7);
    EXPECT_EQ(q.valueAt(0, 1), -7);
    EXPECT_EQ(q.valueAt(1, 0), 7);
    EXPECT_EQ(q.valueAt(1, 2), -7);
    EXPECT_EQ(q.valueAt(2, 1), -7);
    EXPECT_FLOAT_EQ(q.rowScale(0), 1.0f);
    EXPECT_FLOAT_EQ(q.rowScale(1), 2.0f);
    EXPECT_FLOAT_EQ(q.rowScale(2), 0.5f);
}

TEST(Int4Matrix, DotRowApproximatesRealDot)
{
    ecssd::sim::Rng rng(3);
    FloatMatrix m(8, 64);
    for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 64; ++c)
            m.at(r, c) = static_cast<float>(rng.gaussian(0.0, 1.0));
    std::vector<float> feature(64);
    for (float &v : feature)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));

    const Int4Matrix q(m);
    const Int4Vector qf = quantizeVector(feature);
    for (std::size_t r = 0; r < 8; ++r) {
        double exact = 0.0;
        for (std::size_t c = 0; c < 64; ++c)
            exact += static_cast<double>(m.at(r, c)) * feature[c];
        // INT4 is coarse; correlation matters, not precision.  The
        // per-element quantization error is ~scale/2 on each side,
        // so the 64-element dot error std is a few units.
        EXPECT_NEAR(q.dotRow(r, qf), exact, 8.0)
            << "row " << r;
    }
}

TEST(Int4Matrix, RawDotRowMatchesManualSum)
{
    FloatMatrix m(1, 4);
    m.at(0, 0) = 7.0f;
    m.at(0, 1) = -7.0f;
    m.at(0, 2) = 3.5f;
    m.at(0, 3) = 0.0f;
    const Int4Matrix q(m);
    const std::vector<std::int8_t> feature{1, 2, 3, 4};
    // quantized row: [7, -7, 4 (3.5/0.5 scale... scale=0.5? no:
    // scale = 7/7 = 1 -> 3.5 rounds to 4), 0]
    EXPECT_EQ(q.rawDotRow(0, feature), 7 * 1 + (-7) * 2 + 4 * 3 + 0);
}

TEST(Int4Matrix, RowAbsSumTracksRowMass)
{
    FloatMatrix m(2, 4);
    for (std::size_t c = 0; c < 4; ++c) {
        m.at(0, c) = 1.0f;  // uniform small row
        m.at(1, c) = (c == 0) ? 1.0f : 0.0f; // concentrated row
    }
    const Int4Matrix q(m);
    EXPECT_EQ(q.rowAbsSum(0), 4 * 7);
    EXPECT_EQ(q.rowAbsSum(1), 7);
}

TEST(Int4Matrix, RowChunkIsTheDeepestPow2InTheL2Budget)
{
    // 256 KiB of packed rows per chunk, clamped to [512, 4096] rows.
    const std::pair<std::size_t, std::size_t> pinned[] = {
        {0, 4096},   {1, 4096},   {8, 4096},  {64, 4096},
        {128, 2048}, {256, 1024}, {512, 512}, {1u << 20, 512},
    };
    for (const auto &[bytes, chunk] : pinned)
        EXPECT_EQ(rowChunkFor(bytes), chunk) << bytes;
}

TEST(Int4Matrix, StorageIsPackedNibbles)
{
    FloatMatrix m(10, 64);
    const Int4Matrix q(m);
    // 64 cols -> 32 bytes per row, plus one float scale per row.
    EXPECT_EQ(q.storageBytes(), 10u * 32u + 10u * 4u);
}

/** Round-trip property over random shapes. */
class Int4ShapeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(Int4ShapeSweep, QuantizationErrorWithinHalfStep)
{
    const int cols = GetParam();
    ecssd::sim::Rng rng(static_cast<std::uint64_t>(cols));
    FloatMatrix m(4, static_cast<std::size_t>(cols));
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            m.at(r, c) =
                static_cast<float>(rng.uniform(-2.0, 2.0));
    const Int4Matrix q(m);
    for (std::size_t r = 0; r < 4; ++r) {
        const float scale = q.rowScale(r);
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const float back =
                static_cast<float>(q.valueAt(r, c)) * scale;
            EXPECT_NEAR(back, m.at(r, c), scale / 2.0f + 1e-6f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Int4ShapeSweep,
                         ::testing::Values(1, 2, 3, 16, 63, 128,
                                           255));
