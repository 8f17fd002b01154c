#include "int4.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/thread_pool.hh"

namespace ecssd
{
namespace numeric
{

namespace
{

/** One packed byte decoded to its two signed nibble values. */
struct NibblePair
{
    std::int16_t lo;
    std::int16_t hi;
};

/** Sign-extend a 4-bit value branchlessly. */
constexpr std::int16_t
signExtendNibble(unsigned nibble)
{
    return static_cast<std::int16_t>(
        static_cast<int>((nibble & 0xf) ^ 0x8) - 0x8);
}

/** 256-entry byte -> (low, high) signed-pair decode table. */
constexpr std::array<NibblePair, 256>
makeBytePairs()
{
    std::array<NibblePair, 256> pairs{};
    for (unsigned byte = 0; byte < 256; ++byte) {
        pairs[byte].lo = signExtendNibble(byte & 0xf);
        pairs[byte].hi = signExtendNibble(byte >> 4);
    }
    return pairs;
}

constexpr std::array<NibblePair, 256> kBytePairs = makeBytePairs();

/**
 * Column count up to which an int32 accumulator cannot overflow: the
 * largest per-element product is 7 * 7 = 49.
 */
constexpr std::size_t kInt32SafeCols = 0x7fffffff / 49;

/**
 * Packed bytes one parallel chunk should keep resident: half a
 * typical 512KB-1MB L2 so the widened feature, outputs, and the
 * other hyperthread still fit.
 */
constexpr std::size_t kChunkByteBudget = 256 * 1024;

constexpr std::size_t kMinRowChunk = 512;
constexpr std::size_t kMaxRowChunk = 4096;

/** Rescale a raw integer dot product exactly as dotRow() does. */
inline double
rescale(std::int64_t acc, float row_scale, float feature_scale)
{
    return static_cast<double>(acc) * row_scale * feature_scale;
}

/** Unpack a signed nibble (sign-extend 4 -> 32 bits). */
int
unpackNibble(const std::vector<std::uint8_t> &packed, std::size_t i)
{
    const std::uint8_t byte = packed[i / 2];
    const std::uint8_t nibble =
        (i % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
    return (nibble & 0x8) ? static_cast<int>(nibble) - 16
                          : static_cast<int>(nibble);
}

} // namespace

Int4Vector
quantizeVector(std::span<const float> values)
{
    Int4Vector out;
    quantizeVectorInto(values, out);
    return out;
}

void
quantizeVectorInto(std::span<const float> values, Int4Vector &out)
{
    const IsaLevel isa = activeIsa();
    out.size = values.size();
    out.scale =
        maxAbsSpan(values, isa) / static_cast<float>(int4Max);
    out.packed.resize((values.size() + 1) / 2);
    quantizePackSpan(values, out.scale, out.packed.data(), isa);
}

int
unpackInt4(const Int4Vector &vec, std::size_t i)
{
    return unpackNibble(vec.packed, i);
}

std::vector<float>
dequantize(const Int4Vector &vec)
{
    std::vector<float> out(vec.size);
    for (std::size_t i = 0; i < vec.size; ++i)
        out[i] = static_cast<float>(unpackInt4(vec, i)) * vec.scale;
    return out;
}

std::size_t
rowChunkFor(std::size_t bytes_per_row)
{
    const std::size_t bytes = std::max<std::size_t>(1, bytes_per_row);
    std::size_t chunk = kMaxRowChunk;
    while (chunk > kMinRowChunk && chunk * bytes > kChunkByteBudget)
        chunk /= 2;
    return chunk;
}

Int4Matrix::Int4Matrix(const FloatMatrix &source,
                       sim::ThreadPool *pool)
    : rows_(source.rows()), cols_(source.cols()),
      bytesPerRow_((source.cols() + 1) / 2),
      packed_(rows_ * bytesPerRow_, 0), scales_(rows_, 0.0f)
{
    // The ISA level is captured once so every pool worker quantizes
    // with the same kernel (and the result is reproducible even if
    // the active level changes mid-build).
    const IsaLevel isa = activeIsa();
    const auto quantize_rows = [&, isa](std::size_t row_begin,
                                        std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r) {
            const std::span<const float> row = source.row(r);
            const float scale =
                maxAbsSpan(row, isa) / static_cast<float>(int4Max);
            scales_[r] = scale;
            quantizePackSpan(row, scale,
                             packed_.data() + r * bytesPerRow_, isa);
        }
    };
    if (pool)
        pool->parallelFor(0, rows_, 256, quantize_rows);
    else
        quantize_rows(0, rows_);
}

int
Int4Matrix::valueAt(std::size_t r, std::size_t c) const
{
    ECSSD_ASSERT(r < rows_ && c < cols_, "int4 index out of range");
    const std::size_t bit = c;
    const std::uint8_t byte = packed_[r * bytesPerRow_ + bit / 2];
    const std::uint8_t nibble =
        (bit % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
    return (nibble & 0x8) ? static_cast<int>(nibble) - 16
                          : static_cast<int>(nibble);
}

double
Int4Matrix::dotRow(std::size_t r, const Int4Vector &feature) const
{
    ECSSD_ASSERT(feature.size == cols_,
                 "int4 feature length mismatch");
    std::int64_t acc = 0;
    for (std::size_t c = 0; c < cols_; ++c)
        acc += static_cast<std::int64_t>(valueAt(r, c))
            * unpackInt4(feature, c);
    return static_cast<double>(acc) * scales_[r] * feature.scale;
}

std::int64_t
Int4Matrix::rawDotRow(std::size_t r,
                      std::span<const std::int8_t> feature) const
{
    ECSSD_ASSERT(feature.size() == cols_,
                 "int4 feature length mismatch");
    std::int64_t acc = 0;
    for (std::size_t c = 0; c < cols_; ++c)
        acc += static_cast<std::int64_t>(valueAt(r, c)) * feature[c];
    return acc;
}

void
Int4Matrix::widenFeature(const Int4Vector &feature,
                         std::vector<std::int16_t> &out) const
{
    ECSSD_ASSERT(feature.size == cols_,
                 "int4 feature length mismatch");
    out.assign(2 * bytesPerRow_, 0);
    for (std::size_t b = 0; b < feature.packed.size(); ++b) {
        const NibblePair pair = kBytePairs[feature.packed[b]];
        out[2 * b] = pair.lo;
        out[2 * b + 1] = pair.hi;
    }
    // An odd-length feature leaves its final high nibble packed as 0,
    // and the matching pad slot here is 0 too, so the padded products
    // vanish.
}

void
Int4Matrix::dotRowsLut(std::size_t row_begin, std::size_t row_end,
                       std::span<const std::int16_t> feature,
                       float feature_scale, double *out,
                       IsaLevel isa) const
{
    ECSSD_ASSERT(row_begin <= row_end && row_end <= rows_
                     && feature.size() == 2 * bytesPerRow_,
                 "int4 row-range kernel misuse");
    const std::int16_t *widened = feature.data();
    if (cols_ > kInt32SafeCols) {
        // Past the int32-safe column bound every level shares this
        // exact int64 loop (the range kernels keep int32
        // accumulators).
        for (std::size_t r = row_begin; r < row_end; ++r) {
            const std::uint8_t *row =
                packed_.data() + r * bytesPerRow_;
            std::int64_t acc = 0;
            for (std::size_t b = 0; b < bytesPerRow_; ++b) {
                const NibblePair pair = kBytePairs[row[b]];
                acc += static_cast<std::int64_t>(pair.lo) * widened[2 * b]
                    + static_cast<std::int64_t>(pair.hi)
                        * widened[2 * b + 1];
            }
            out[r - row_begin] =
                rescale(acc, scales_[r], feature_scale);
        }
        return;
    }
    // Range kernel + stack staging: one dispatch per block of rows,
    // and the raw int64 accumulators rescale in a separate tight
    // loop (same rescale expression, so same bits).
    std::array<std::int64_t, 256> acc;
    for (std::size_t r0 = row_begin; r0 < row_end; r0 += acc.size()) {
        const std::size_t n =
            std::min(acc.size(), row_end - r0);
        rowDotWidenedRange(packed_.data() + r0 * bytesPerRow_,
                           bytesPerRow_, n, widened, bytesPerRow_,
                           acc.data(), isa);
        for (std::size_t i = 0; i < n; ++i)
            out[r0 - row_begin + i] =
                rescale(acc[i], scales_[r0 + i], feature_scale);
    }
}

std::int64_t
Int4Matrix::rowAbsSum(std::size_t r) const
{
    std::int64_t acc = 0;
    for (std::size_t c = 0; c < cols_; ++c)
        acc += std::abs(valueAt(r, c));
    return acc;
}

std::uint64_t
Int4Matrix::storageBytes() const
{
    return packed_.size() + scales_.size() * sizeof(float);
}

} // namespace numeric
} // namespace ecssd
