/**
 * @file
 * Differential fuzz harness over every runtime-dispatched kernel
 * variant (see numeric/kernels.hh): for each ISA level this CPU
 * supports, each kernel must match the scalar reference — integer
 * kernels byte for byte, FP32 kernels bit for bit (the repo's current
 * contract is exact replication; the checked-in goldens at the bottom
 * pin the tolerance contract any future reassociating kernel would
 * have to meet).  Shapes cover cols = 1, odd, even, zero rows,
 * saturated nibbles, the int64-fallback boundary near 0x7fffffff / 49
 * columns where the int32 SIMD accumulators sit one product away from
 * overflow, and the 2^16-element CFP32 slab dot whose int64 halves
 * sit just inside theirs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "numeric/cfp32.hh"
#include "numeric/int4.hh"
#include "numeric/kernels.hh"
#include "numeric/mac.hh"
#include "numeric/matrix.hh"
#include "sim/rng.hh"

using namespace ecssd;
using namespace ecssd::numeric;

namespace
{

/**
 * Column count up to which the kernels keep int32 accumulators (the
 * largest per-element product is 7 * 7 = 49).  Mirrors the private
 * constant in numeric/int4.cc; the boundary test below would start
 * failing loudly if the two ever diverged.
 */
constexpr std::size_t kInt32SafeCols = 0x7fffffff / 49;

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

/** Every level this host can run, scalar first. */
const std::vector<IsaLevel> &
levels()
{
    static const std::vector<IsaLevel> all = supportedIsaLevels();
    return all;
}

/** Raw LUT dot of row @p r through a one-row range kernel call (the
 *  int32 contract: cols <= kInt32SafeCols). */
std::int64_t
rawDotRow(const Int4Matrix &matrix, std::size_t r,
          const std::vector<std::int16_t> &widened, IsaLevel isa)
{
    std::int64_t out = 0;
    rowDotWidenedRange(matrix.packedRow(r).data(), matrix.bytesPerRow(),
                       1, widened.data(), matrix.bytesPerRow(), &out,
                       isa);
    return out;
}

/**
 * Assert every integer kernel entry point produces the scalar bits
 * at every supported ISA level on @p matrix x @p feature.
 */
void
expectIntegerKernelsAgree(const Int4Matrix &matrix,
                          const Int4Vector &feature,
                          const char *label)
{
    std::vector<std::int16_t> widened;
    matrix.widenFeature(feature, widened);
    const std::size_t rows = matrix.rows();

    // Scalar reference results, computed once.
    std::vector<std::int64_t> raw_ref(rows);
    for (std::size_t r = 0; r < rows; ++r)
        raw_ref[r] = rawDotRow(matrix, r, widened, IsaLevel::Scalar);
    std::vector<double> lut_ref(rows);
    matrix.dotRowsLut(0, rows, widened, feature.scale,
                      lut_ref.data(), IsaLevel::Scalar);

    for (const IsaLevel isa : levels()) {
        SCOPED_TRACE(std::string(label) + " isa=" + toString(isa));

        // Per-row raw integer dot (a range kernel's odd-row tail).
        for (std::size_t r = 0; r < rows; ++r)
            EXPECT_EQ(rawDotRow(matrix, r, widened, isa), raw_ref[r])
                << "row " << r;

        // Rescaled row-range kernel, full range and a split range
        // (tiling must be invisible).
        std::vector<double> lut(rows);
        matrix.dotRowsLut(0, rows, widened, feature.scale,
                          lut.data(), isa);
        EXPECT_EQ(lut, lut_ref);
        if (rows >= 3) {
            const std::size_t mid = rows / 3;
            std::vector<double> split(rows);
            matrix.dotRowsLut(0, mid, widened, feature.scale,
                              split.data(), isa);
            matrix.dotRowsLut(mid, rows, widened, feature.scale,
                              split.data() + mid, isa);
            EXPECT_EQ(split, lut_ref);
        }

        // The raw range kernel (the hot screener path) against the
        // per-row calls, only on shapes inside its int32 contract.
        if (matrix.cols() <= kInt32SafeCols && rows > 0) {
            std::vector<std::int64_t> range(rows);
            rowDotWidenedRange(matrix.packedRow(0).data(),
                               matrix.bytesPerRow(), rows,
                               widened.data(), matrix.bytesPerRow(),
                               range.data(), isa);
            EXPECT_EQ(range, raw_ref);
        }
    }
}

} // namespace

TEST(KernelsDifferential, RandomShapesAllPairsByteIdentical)
{
    // cols: single, odd, even, just under/over one SIMD register of
    // packed bytes (32 bytes = 64 cols), and wide; rows include a
    // zero-row range via the empty matrix.
    const struct
    {
        std::size_t rows, cols;
    } shapes[] = {{0, 16},  {1, 1},   {17, 1},  {5, 2},
                  {33, 7},  {64, 63}, {64, 64}, {129, 65},
                  {257, 127}, {40, 301}};
    for (const auto &shape : shapes) {
        for (const std::uint64_t seed : {2ull, 23ull, 404ull}) {
            const Int4Matrix matrix(
                randomMatrix(shape.rows, shape.cols, seed));
            const Int4Vector feature = quantizeVector(
                randomVector(shape.cols, seed + 5000));
            const std::string label =
                std::to_string(shape.rows) + "x"
                + std::to_string(shape.cols) + " seed "
                + std::to_string(seed);
            expectIntegerKernelsAgree(matrix, feature,
                                      label.c_str());
        }
    }
}

TEST(KernelsDifferential, SaturatedNibblesAllLevels)
{
    // Alternating extremes quantize to the full +/-7 range — the
    // worst-case per-column accumulator magnitude — at several
    // tail-handling widths.
    for (const std::size_t cols : {15ull, 64ull, 65ull, 130ull}) {
        FloatMatrix source(9, cols);
        for (std::size_t r = 0; r < source.rows(); ++r)
            for (std::size_t c = 0; c < cols; ++c)
                source.at(r, c) =
                    ((r + c) % 2 == 0) ? 100.0f : -100.0f;
        const Int4Matrix matrix(source);
        std::vector<float> spikes(cols);
        for (std::size_t c = 0; c < cols; ++c)
            spikes[c] = (c % 2 == 0) ? -50.0f : 50.0f;
        expectIntegerKernelsAgree(matrix, quantizeVector(spikes),
                                  "saturated");
    }
}

TEST(KernelsDifferential, ZeroRowsAndZeroFeature)
{
    FloatMatrix source(7, 24);
    sim::Rng rng(8);
    // Rows 0, 3, 6 stay all-zero (row scale 0).
    for (const std::size_t r : {1ull, 2ull, 4ull, 5ull})
        for (std::size_t c = 0; c < 24; ++c)
            source.at(r, c) =
                static_cast<float>(rng.gaussian(0.0, 2.0));
    const Int4Matrix matrix(source);
    expectIntegerKernelsAgree(matrix,
                              quantizeVector(randomVector(24, 31)),
                              "zero rows");
    expectIntegerKernelsAgree(
        matrix, quantizeVector(std::vector<float>(24, 0.0f)),
        "zero feature");
}

TEST(KernelsDifferential, Int64FallbackBoundary)
{
    // At exactly kInt32SafeCols columns of all-saturated products the
    // accumulator reaches 49 * cols = 2,147,483,604 — 43 below
    // INT32_MAX, the worst case the int32 SIMD reduction proof in
    // kernels.cc must survive.  One column more and Int4Matrix must
    // route every level to the identical scalar int64 loop.
    for (const std::size_t cols :
         {kInt32SafeCols, kInt32SafeCols + 1}) {
        SCOPED_TRACE("cols " + std::to_string(cols));
        // Built without a FloatMatrix staging copy (cols floats is
        // ~175 MB); all-positive extremes quantize every nibble to +7
        // so every product is +49.
        const Int4Matrix matrix = [cols] {
            FloatMatrix source(1, cols);
            for (std::size_t c = 0; c < cols; ++c)
                source.at(0, c) = 100.0f;
            return Int4Matrix(source);
        }();
        const Int4Vector feature = [cols] {
            std::vector<float> values(cols, 100.0f);
            return quantizeVector(values);
        }();

        std::vector<std::int16_t> widened;
        matrix.widenFeature(feature, widened);
        const std::int64_t expected =
            49 * static_cast<std::int64_t>(cols);
        if (cols > kInt32SafeCols)
            ASSERT_GT(expected, std::int64_t{0x7fffffff});
        else
            ASSERT_LE(expected, std::int64_t{0x7fffffff});

        for (const IsaLevel isa : levels()) {
            SCOPED_TRACE(std::string("isa ") + toString(isa));
            if (cols <= kInt32SafeCols) {
                EXPECT_EQ(rawDotRow(matrix, 0, widened, isa), expected);
            }
            double out = 0.0;
            matrix.dotRowsLut(0, 1, widened, feature.scale, &out,
                              isa);
            EXPECT_EQ(out, static_cast<double>(expected)
                               * matrix.rowScale(0)
                               * feature.scale);
        }
    }
}

TEST(KernelsDifferential, QuantizePackSpanByteIdentical)
{
    // Random values, exact-halfway multiples of the scale (round half
    // away from zero must agree), saturating magnitudes, and the odd
    // final nibble.
    for (const std::size_t n :
         {0ull, 1ull, 7ull, 8ull, 15ull, 64ull, 257ull}) {
        for (const std::uint64_t seed : {3ull, 19ull}) {
            std::vector<float> values = randomVector(n, seed);
            if (n >= 4) {
                values[0] = 0.0f;
                values[1] = -0.0f;
                values[2] = 1000.0f;  // clamps to +7
                values[3] = -1000.0f; // clamps to -7
            }
            const float max_abs =
                maxAbsSpan(values, IsaLevel::Scalar);
            const float scale =
                max_abs / static_cast<float>(int4Max);
            // Force exact halfway points: v = (k + 0.5) * scale.
            if (n >= 6 && scale > 0.0f) {
                values[4] = 2.5f * scale;
                values[5] = -3.5f * scale;
            }
            std::vector<std::uint8_t> ref((n + 1) / 2, 0xee);
            quantizePackSpan(values, scale, ref.data(),
                             IsaLevel::Scalar);
            for (const IsaLevel isa : levels()) {
                SCOPED_TRACE(std::string("n ") + std::to_string(n)
                             + " isa " + toString(isa));
                EXPECT_EQ(maxAbsSpan(values, isa), max_abs);
                std::vector<std::uint8_t> out((n + 1) / 2, 0x11);
                quantizePackSpan(values, scale, out.data(), isa);
                EXPECT_EQ(out, ref);
                // Zero scale (all-zero input) packs all zeros.
                std::vector<std::uint8_t> zero((n + 1) / 2, 0x55);
                quantizePackSpan(values, 0.0f, zero.data(), isa);
                EXPECT_EQ(zero,
                          std::vector<std::uint8_t>((n + 1) / 2, 0));
            }
        }
    }
}

namespace
{

/** Assert the CFP32 pre-alignment matches the scalar reference bits
 *  at every supported level on @p values. */
void
expectPreAlignAgrees(const std::vector<float> &values,
                     const char *label)
{
    const Cfp32Vector ref32 =
        Cfp32Vector::preAlign(values, IsaLevel::Scalar);
    for (const IsaLevel isa : levels()) {
        SCOPED_TRACE(std::string(label) + " isa=" + toString(isa));
        const Cfp32Vector got32 =
            Cfp32Vector::preAlign(values, isa);
        EXPECT_EQ(got32.sharedExponent(), ref32.sharedExponent());
        EXPECT_EQ(got32.lossyElements(), ref32.lossyElements());
        ASSERT_EQ(got32.size(), ref32.size());
        for (std::size_t i = 0; i < ref32.size(); ++i) {
            EXPECT_EQ(got32[i].sign, ref32[i].sign) << "elem " << i;
            EXPECT_EQ(got32[i].significand, ref32[i].significand)
                << "elem " << i;
        }
    }
}

} // namespace

TEST(KernelsDifferential, PreAlignAllPairsByteIdentical)
{
    // Sizes straddle the 8-lane blocking (tail handling) and seeds
    // vary the exponent spread; the mixed-magnitude case pushes
    // alignment gaps past the 31/63-bit shift cliffs.
    for (const std::size_t n :
         {0ull, 1ull, 5ull, 8ull, 9ull, 64ull, 127ull, 513ull}) {
        for (const std::uint64_t seed : {11ull, 87ull}) {
            std::vector<float> values = randomVector(n, seed);
            expectPreAlignAgrees(values,
                                 ("gauss n=" + std::to_string(n))
                                     .c_str());
            if (n >= 8) {
                // Denormals flush, zeros of both signs, huge spread.
                values[0] = 0.0f;
                values[1] = -0.0f;
                values[2] = 1e-40f;
                values[3] = -1e-40f;
                values[4] = 3.4e38f;
                values[5] = 1.4e-45f;
                values[6] = -65504.0f;
                values[7] = 1.0f + 0x1p-23f; // lossy tail bit
                expectPreAlignAgrees(values,
                                     ("edge n=" + std::to_string(n))
                                         .c_str());
            }
        }
    }
    // All-zero vector: shared exponent 0, nothing lossy.
    expectPreAlignAgrees(std::vector<float>(33, 0.0f), "all-zero");
    // Exact powers of two with gaps <= the compensation width stay
    // lossless; a 40-binade spread forces total shift-out.
    std::vector<float> spread;
    for (int e = -20; e <= 20; ++e)
        spread.push_back(std::ldexp(1.0f, e));
    expectPreAlignAgrees(spread, "binade spread");
}

namespace
{

/**
 * Assert the CFP32 slab dot of @p row x @p query matches
 * AlignmentFreeMac::dot at every supported level: the same integer
 * (an off-by-one could round away in the double) and the same bits
 * after the shared normalization.
 */
void
expectSlabDotAgrees(const std::vector<float> &row,
                    const std::vector<float> &query, const char *label)
{
    ASSERT_EQ(row.size(), query.size());
    const std::size_t n = row.size();
    const Cfp32Vector row32 = Cfp32Vector::preAlign(row, IsaLevel::Scalar);
    const Cfp32Vector query32 =
        Cfp32Vector::preAlign(query, IsaLevel::Scalar);
    const double want = AlignmentFreeMac::dot(row32, query32).value;
    __int128 want_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const __int128 product =
            static_cast<__int128>(row32[i].significand)
            * query32[i].significand;
        want_sum += (row32[i].sign ^ query32[i].sign) ? -product
                                                      : product;
    }

    for (const IsaLevel isa : levels()) {
        SCOPED_TRACE(std::string(label) + " isa=" + toString(isa));
        std::vector<std::int32_t> slab_row(n);
        std::vector<std::int32_t> lo(n);
        std::vector<std::int32_t> hi(n);
        const std::uint32_t row_exponent =
            preAlignSigned(row, slab_row.data(), isa);
        EXPECT_EQ(row_exponent, row32.sharedExponent());
        const Cfp32Vector aligned = Cfp32Vector::preAlign(query, isa);
        splitSignificands(aligned, lo.data(), hi.data());
        const __int128 sum = cfp32SlabDot(slab_row.data(), lo.data(),
                                          hi.data(), n, isa);
        EXPECT_TRUE(sum == want_sum)
            << "high words " << static_cast<std::int64_t>(sum >> 64)
            << " vs " << static_cast<std::int64_t>(want_sum >> 64);
        const double got = AlignmentFreeMac::normalize(
            sum, row_exponent, aligned.sharedExponent());
        std::uint64_t got_bits = 0, want_bits = 0;
        std::memcpy(&got_bits, &got, sizeof(got));
        std::memcpy(&want_bits, &want, sizeof(want));
        EXPECT_EQ(got_bits, want_bits) << got << " vs " << want;
    }
}

} // namespace

TEST(KernelsDifferential, Cfp32SlabDotMatchesAlignmentFreeMacEveryLevel)
{
    // D = 1, odd D and the SIMD tails around 1024.
    for (const std::size_t n :
         {1ull, 7ull, 31ull, 1023ull, 1024ull, 1025ull}) {
        for (const std::uint64_t seed : {5ull, 71ull}) {
            const std::string label = "gauss n=" + std::to_string(n);
            expectSlabDotAgrees(randomVector(n, seed),
                                randomVector(n, seed + 1000),
                                label.c_str());
        }
    }

    // Signed zeros on both sides, against zeros and non-zeros.
    std::vector<float> row = randomVector(37, 9);
    std::vector<float> query = randomVector(37, 10);
    for (std::size_t i = 0; i < row.size(); i += 3)
        row[i] = (i % 2 == 0) ? -0.0f : 0.0f;
    for (std::size_t i = 0; i < query.size(); i += 4)
        query[i] = -0.0f;
    expectSlabDotAgrees(row, query, "signed zeros");
    expectSlabDotAgrees(std::vector<float>(19, -0.0f),
                        randomVector(19, 11), "all -0 row");

    // Row and query exponents far apart, with a wide spread inside
    // the row (alignment shifts past the compensation bits).
    std::vector<float> big = randomVector(97, 12);
    std::vector<float> tiny = randomVector(97, 13);
    for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = std::ldexp(big[i], 100 - static_cast<int>(i % 40));
        tiny[i] = std::ldexp(tiny[i], -120);
    }
    expectSlabDotAgrees(big, tiny, "exponents far apart");

    // The overflow bound: D = 2^16, every significand at its largest
    // value (2^24 - 1) * 2^7 and one shared sign, so no product
    // cancels another.
    const float largest = std::nextafter(2.0f, 0.0f);
    const std::vector<float> plus(kCfp32SlabMaxDim, largest);
    const std::vector<float> minus(kCfp32SlabMaxDim, -largest);
    ASSERT_EQ(Cfp32Vector::preAlign(plus)[0].significand,
              ((1u << 24) - 1) << 7);
    expectSlabDotAgrees(minus, minus, "bound, positive products");
    expectSlabDotAgrees(plus, minus, "bound, negative products");
}

TEST(KernelsDifferential, ProjectGemvBitIdentical)
{
    // The projection GEMV accumulates per output in ascending-d
    // order; every level must produce the double-accumulated scalar
    // bits exactly.
    const struct
    {
        std::size_t full, shrunk;
    } shapes[] = {{1, 1}, {9, 3}, {64, 16}, {100, 33}, {128, 64}};
    for (const auto &shape : shapes) {
        const std::vector<float> basisT =
            randomVector(shape.full * shape.shrunk, 17);
        const std::vector<float> vec =
            randomVector(shape.full, 23);
        std::vector<float> ref(shape.shrunk, -1.0f);
        projectGemv(basisT, shape.full, shape.shrunk, vec,
                    ref.data(), IsaLevel::Scalar);
        for (const IsaLevel isa : levels()) {
            SCOPED_TRACE(std::string("shape ")
                         + std::to_string(shape.full) + "x"
                         + std::to_string(shape.shrunk) + " isa "
                         + toString(isa));
            std::vector<float> out(shape.shrunk, 2.0f);
            projectGemv(basisT, shape.full, shape.shrunk, vec,
                        out.data(), isa);
            ASSERT_EQ(out.size(), ref.size());
            for (std::size_t k = 0; k < ref.size(); ++k) {
                // Bit comparison — EXPECT_EQ would treat -0.0 == 0.0
                // and NaN != NaN.
                std::uint32_t a = 0, b = 0;
                std::memcpy(&a, &out[k], sizeof(a));
                std::memcpy(&b, &ref[k], sizeof(b));
                EXPECT_EQ(a, b) << "output " << k;
            }
        }
    }
}

TEST(KernelsDifferential, PairwiseDotMatchesNaiveFpMacEveryLevel)
{
    for (const std::size_t n : {0ull, 1ull, 2ull, 3ull, 7ull, 8ull,
                                9ull, 64ull, 100ull, 1000ull}) {
        const std::vector<float> a = randomVector(n, 41 + n);
        const std::vector<float> b = randomVector(n, 43 + n);
        const double ref = NaiveFpMac::dot(a, b).value;
        for (const IsaLevel isa : levels()) {
            SCOPED_TRACE(std::string("n ") + std::to_string(n)
                         + " isa " + toString(isa));
            const double got = pairwiseDotF32(a, b, isa);
            std::uint64_t ga = 0, gb = 0;
            std::memcpy(&ga, &got, sizeof(ga));
            std::memcpy(&gb, &ref, sizeof(gb));
            EXPECT_EQ(ga, gb);
        }
    }
}

TEST(KernelsDifferential, Fp32CheckedInGolden)
{
    // Platform-independent inputs (pure integer arithmetic, no libm)
    // against checked-in goldens.  Tolerance contract: the current
    // kernels replicate the scalar pairwise tree exactly, so the
    // comparison is bit-exact; a future reassociating FP32 kernel
    // must stay within |rel err| <= 1e-6 of these values AND declare
    // itself by loosening this test (docs/MODELING.md §14).
    std::vector<float> a(96), b(96);
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::uint32_t ha =
            static_cast<std::uint32_t>(i * 2654435761u);
        const std::uint32_t hb =
            static_cast<std::uint32_t>((i + 57) * 2246822519u);
        a[i] = static_cast<float>(static_cast<int>(ha % 2001) - 1000)
            / 256.0f;
        b[i] = static_cast<float>(static_cast<int>(hb % 2001) - 1000)
            / 256.0f;
    }
    const double golden = 75.238372802734375;
    for (const IsaLevel isa : levels()) {
        SCOPED_TRACE(std::string("isa ") + toString(isa));
        EXPECT_NEAR(pairwiseDotF32(a, b, isa), golden,
                    std::abs(golden) * 1e-6);
        // And today's exact contract.
        EXPECT_EQ(pairwiseDotF32(a, b, isa),
                  pairwiseDotF32(a, b, IsaLevel::Scalar));
    }

    // Integer golden on the same inputs, quantized: exact at every
    // level by construction.
    const Int4Vector qa = quantizeVector(a);
    FloatMatrix m(1, b.size());
    for (std::size_t c = 0; c < b.size(); ++c)
        m.at(0, c) = b[c];
    const Int4Matrix matrix(m);
    std::vector<std::int16_t> widened;
    matrix.widenFeature(qa, widened);
    const std::int64_t int_golden = 230;
    for (const IsaLevel isa : levels())
        EXPECT_EQ(rawDotRow(matrix, 0, widened, isa), int_golden)
            << toString(isa);
}
