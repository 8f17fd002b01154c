/**
 * @file
 * INT4 symmetric quantization for the approximate screener.
 *
 * The screener weight matrix is stored as packed signed 4-bit values
 * (two per byte) with one FP32 scale per row; features quantize to
 * signed 4-bit with one scale per vector.  The screening score is an
 * integer dot product rescaled by the two scales.
 */

#ifndef ECSSD_NUMERIC_INT4_HH
#define ECSSD_NUMERIC_INT4_HH

#include <cstdint>
#include <span>
#include <vector>

#include "numeric/kernels.hh"
#include "numeric/matrix.hh"

namespace ecssd
{
namespace sim
{
class ThreadPool;
} // namespace sim
} // namespace ecssd

namespace ecssd
{
namespace numeric
{

/** Signed 4-bit quantization range: symmetric [-7, 7]. */
constexpr int int4Max = 7;
constexpr int int4Min = -7;

/** One quantized vector: packed nibbles plus its scale. */
struct Int4Vector
{
    /** Two signed nibbles per byte, low nibble first. */
    std::vector<std::uint8_t> packed;
    /** Logical element count (may be odd). */
    std::size_t size = 0;
    /** Dequantization scale: real ~= q * scale. */
    float scale = 0.0f;
};

/** Quantize one float vector to signed INT4 with a symmetric scale. */
Int4Vector quantizeVector(std::span<const float> values);

/**
 * Quantize into an existing vector, reusing its packed storage (the
 * hot-path variant: no per-query allocation once the buffer warmed
 * up).
 */
void quantizeVectorInto(std::span<const float> values,
                        Int4Vector &out);

/** Unpack element @p i of @p vec as a signed integer in [-7, 7]. */
int unpackInt4(const Int4Vector &vec, std::size_t i);

/** Dequantize the whole vector back to floats. */
std::vector<float> dequantize(const Int4Vector &vec);

/**
 * Rows per parallel screening chunk for @p bytes_per_row: the largest
 * power of two in [512, 4096] whose packed rows fit the chunk's L2
 * budget (fewer dispatches while the chunk stays resident); 512 when
 * even that overflows it.
 */
std::size_t rowChunkFor(std::size_t bytes_per_row);

/**
 * A row-quantized INT4 matrix: the storage format of the approximate
 * screener weights held in ECSSD's DRAM.
 */
class Int4Matrix
{
  public:
    Int4Matrix() = default;

    /**
     * Quantize @p source row-by-row, packing each row in place (no
     * staging copy).  With a pool, rows quantize in parallel; each
     * row writes only its own packed/scale slots, so the result is
     * bit-identical for any thread count.
     */
    explicit Int4Matrix(const FloatMatrix &source,
                        sim::ThreadPool *pool = nullptr);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Signed value of element (r, c). */
    int valueAt(std::size_t r, std::size_t c) const;

    /** Scale of row @p r. */
    float rowScale(std::size_t r) const { return scales_[r]; }

    /**
     * Integer dot product of row @p r with a quantized feature,
     * rescaled into real units by both scales.
     */
    double dotRow(std::size_t r, const Int4Vector &feature) const;

    /** Raw integer dot product of row @p r (no rescale). */
    std::int64_t rawDotRow(std::size_t r,
                           std::span<const std::int8_t> feature) const;

    // --- Fast byte-wise kernel ------------------------------------
    //
    // The scalar dotRow() above unpacks one nibble per step with a
    // bounds assert and a sign-extension branch.  dotRowsLut()
    // consumes two nibbles per byte against a feature pre-widened to
    // int16, accumulates in int32, and rescales once per row with the
    // exact expression dotRow() uses — so its results are
    // bit-identical to the scalar reference (integer accumulation has
    // no rounding, and the final rescale is the same double product).
    //
    // It takes an IsaLevel (default: the process-wide activeIsa())
    // selecting the rowDotWidenedRange body from numeric/kernels.hh,
    // the scalar LUT loop included.  Integer accumulation is
    // associative, so every level returns the same bits.  Past
    // kInt32SafeCols columns every level runs one int64 loop.

    /** Widen @p feature to the int16 layout the kernels consume: one
     *  value per nibble slot, zero-padded to 2 * bytes-per-row. */
    void widenFeature(const Int4Vector &feature,
                      std::vector<std::int16_t> &out) const;

    /**
     * Score rows [row_begin, row_end) against one widened feature
     * into out[r - row_begin], rescaled by row scales and
     * @p feature_scale.  The hot single-query kernel; safe to call
     * concurrently on disjoint row ranges.
     */
    void dotRowsLut(std::size_t row_begin, std::size_t row_end,
                    std::span<const std::int16_t> feature,
                    float feature_scale, double *out,
                    IsaLevel isa = activeIsa()) const;

    /** Packed bytes of one row (two nibbles per byte). */
    std::span<const std::uint8_t>
    packedRow(std::size_t r) const
    {
        return std::span<const std::uint8_t>(
            packed_.data() + r * bytesPerRow_, bytesPerRow_);
    }

    /** Bytes holding one packed row. */
    std::size_t bytesPerRow() const { return bytesPerRow_; }

    /** Sum of |q| over row @p r: the hot-degree predictor input. */
    std::int64_t rowAbsSum(std::size_t r) const;

    /** Packed storage footprint in bytes (nibbles + row scales). */
    std::uint64_t storageBytes() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t bytesPerRow_ = 0;
    std::vector<std::uint8_t> packed_;
    std::vector<float> scales_;
};

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_INT4_HH
