/**
 * @file
 * Runtime-dispatched SIMD host kernels.
 *
 * Every hot host-compute kernel (INT4 LUT screening, quantization,
 * the projection GEMV, the FP32 pairwise-tree dot, CFP32
 * pre-alignment, the CFP32 re-rank dot) has one body per ISA level:
 *
 *   scalar  — the reference loops; the fallback on hosts without
 *             AVX2.
 *   avx2    — 256-bit integer (pmaddwd) and FP paths.
 *   avx512  — 512-bit paths (requires AVX-512 F/BW/VL), kept only
 *             for the INT4 range kernel, the projection GEMV and the
 *             CFP32 re-rank dot, where it beats avx2.  The other
 *             kernels run their avx2 body at this level.
 *
 * A level stays only while it beats the level below it.
 *
 * Dispatch contract: *every* level computes bit-identical results.
 * Integer kernels accumulate exactly (associativity is free); the
 * FP32 kernels are vectorized across independent outputs or along
 * the data-independent pairwise-tree structure, so no floating-point
 * operation is reassociated relative to the scalar reference.  This
 * file is compiled with -ffp-contract=off so no level silently gains
 * an FMA the others lack.  The golden-tolerance contract for any
 * future reassociating FP32 kernel lives in
 * tests/test_kernels_differential.cc (see docs/MODELING.md §14).
 *
 * The active level is process-global and resolved once, by
 * activeIsa(): from the ECSSD_ISA environment variable when it is
 * set (how tests and CI pin a path), by CPU detection otherwise.
 */

#ifndef ECSSD_NUMERIC_KERNELS_HH
#define ECSSD_NUMERIC_KERNELS_HH

#include <cstdint>
#include <span>
#include <vector>

namespace ecssd
{
namespace numeric
{

/** One host-kernel implementation level, worst to best. */
enum class IsaLevel : int
{
    Scalar = 0,
    Avx2 = 2,
    Avx512 = 3,
};

/** Canonical lowercase name ("scalar", "avx2", "avx512"). */
const char *toString(IsaLevel level);

/** True when this CPU can execute @p level. */
bool isaSupported(IsaLevel level);

/** Best level this CPU supports (Scalar without AVX2). */
IsaLevel detectBestIsa();

/** Every level this CPU supports, worst to best (Scalar included). */
std::vector<IsaLevel> supportedIsaLevels();

/**
 * The level an ECSSD_ISA value selects: detectBestIsa() when
 * @p value is null, empty or "auto", else the named level.  Fatal
 * (E_BAD_ISA) on an unknown name and (E_ISA_UNSUPPORTED) on a level
 * this CPU cannot execute.
 */
IsaLevel resolveIsa(const char *value);

/**
 * The process-global active level every implicit-dispatch kernel
 * entry point uses: resolveIsa(getenv("ECSSD_ISA")), resolved on
 * first use and kept for the life of the process.
 */
IsaLevel activeIsa();

/** Pin the active level directly (tests).  Fatal if unsupported. */
void setActiveIsa(IsaLevel level);

// --- FP32 kernels (bit-stable across levels) ----------------------

/**
 * Dot product of @p a and @p b evaluated as binary32 products fed
 * into the binary32 pairwise adder tree — the exact value
 * NaiveFpMac::dot() produces, at every ISA level (the tree's
 * pairings are data-independent, so lanes can compute them without
 * reassociating anything).
 */
double pairwiseDotF32(std::span<const float> a,
                      std::span<const float> b, IsaLevel level);

/** Implicit-dispatch overload (activeIsa()). */
double pairwiseDotF32(std::span<const float> a,
                      std::span<const float> b);

/**
 * Row-blocked projection GEMV: out[k] = sum_d basisT[d * k_count + k]
 * * vec[d], accumulated in double in ascending-d order per output —
 * the same operation sequence per output as the scalar reference, so
 * every level produces identical bits.  @p basisT is the transposed
 * (D x K) projection basis.
 */
void projectGemv(std::span<const float> basisT, std::size_t full_dim,
                 std::size_t shrunk_dim, std::span<const float> vec,
                 float *out, IsaLevel level);

// --- Quantization kernels (bit-stable across levels) --------------

/**
 * Quantize @p values with @p scale to signed INT4 and pack two
 * nibbles per byte (low nibble first) into @p out, which must hold
 * (values.size() + 1) / 2 bytes.  Replicates
 * clamp(lround(v / scale), -7, 7) exactly (round half away from
 * zero), zero when @p scale is zero.
 */
void quantizePackSpan(std::span<const float> values, float scale,
                      std::uint8_t *out, IsaLevel level);

/** max |v| over the span (order-free, hence exact at any level). */
float maxAbsSpan(std::span<const float> values, IsaLevel level);

// --- CFP pre-alignment kernels (exact bit manipulation) -----------
//
// Both passes of the Cfp32Vector::preAlign host step operate purely
// on the integer bit patterns of the inputs, so every ISA level is
// exact by construction.  The interleaved output matches the element
// layout of cfp32.hh (static_asserted at the call site).

/**
 * Pass 1 of CFP32 pre-alignment: the vector-wise maximum biased
 * exponent over @p values.  Fatal on NaN/Inf input (the preAlign
 * contract).
 */
std::uint32_t cfp32MaxExponent(std::span<const float> values,
                               IsaLevel level);

/**
 * Pass 2 of CFP32 pre-alignment: align every 24-bit significand to
 * the shared biased exponent @p emax, writing interleaved
 * (sign, significand) pairs — 2 * values.size() uint32 words, the
 * Cfp32Element layout.  Returns the number of lossy elements.
 */
std::uint64_t cfp32AlignSpan(std::span<const float> values,
                             std::uint32_t emax, std::uint32_t *out,
                             IsaLevel level);

// --- INT4 LUT kernels (exact integer accumulation) ----------------

/**
 * Raw integer dot products of @p row_count packed rows (row i at
 * rows + i * row_stride) against one widened int16 feature (see
 * Int4Matrix::widenFeature) into out[i], with int32 accumulation.
 * The caller guarantees cols <= kInt32SafeCols (Int4Matrix runs its
 * int64 loop beyond that).  The ISA dispatch runs once for the whole
 * range — the hot single-query screener path.
 */
void rowDotWidenedRange(const std::uint8_t *rows,
                        std::size_t row_stride,
                        std::size_t row_count,
                        const std::int16_t *feature,
                        std::size_t bytes, std::int64_t *out,
                        IsaLevel level);

// --- CFP32 re-rank kernel (exact integer accumulation) ------------

/** Longest vector the CFP32 slab dot sums exactly (see below). */
constexpr std::size_t kCfp32SlabMaxDim = std::size_t{1} << 16;

/**
 * Exact integer dot of one pre-aligned CFP32 row against one
 * pre-aligned query: sum_d row[d] * (hi[d] * 2^16 + lo[d]), the sum
 * AlignmentFreeMac::dot accumulates in __int128.
 *
 * @p row holds signed aligned significands (sign applied, |row[d]| <
 * 2^31).  The query's 31-bit significand is split into a 16-bit low
 * half @p query_lo and a 15-bit high half @p query_hi, each carrying
 * the element's sign.  The two halves accumulate in separate int64
 * sums, exact for @p dim <= kCfp32SlabMaxDim because |row * lo| * dim
 * < 2^47 * 2^16 = 2^63 and every partial sum is bounded by that total,
 * in any order.  So every level returns the same integer.
 */
__int128 cfp32SlabDot(const std::int32_t *row,
                      const std::int32_t *query_lo,
                      const std::int32_t *query_hi, std::size_t dim,
                      IsaLevel level);

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_KERNELS_HH
