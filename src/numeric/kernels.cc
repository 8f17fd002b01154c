/**
 * This translation unit is compiled with -ffp-contract=off (see
 * CMakeLists.txt): the rest of the build targets baseline x86-64
 * where mul+add never fuse, and a contracted FMA in any variant here
 * would break the cross-ISA bit-identity contract.
 *
 * The AVX2/AVX-512 bodies use per-function target attributes instead
 * of per-file -march flags so one binary carries every level and
 * picks at runtime.
 */

#include "kernels.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#define ECSSD_KERNELS_X86 1
#include <immintrin.h>
#else
#define ECSSD_KERNELS_X86 0
#endif

#include "sim/logging.hh"

namespace ecssd
{
namespace numeric
{

namespace
{

// --- Shared decode tables (mirrors int4.cc) -----------------------

struct NibblePair
{
    std::int16_t lo;
    std::int16_t hi;
};

constexpr std::int16_t
signExtendNibble(unsigned nibble)
{
    return static_cast<std::int16_t>(
        static_cast<int>((nibble & 0xf) ^ 0x8) - 0x8);
}

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

/** Every level, worst to best. */
constexpr IsaLevel kIsaLevels[] = {IsaLevel::Scalar, IsaLevel::Avx2,
                                   IsaLevel::Avx512};

/** Active level, or -1 before first resolution. */
std::atomic<int> g_activeIsa{-1};

} // namespace

const char *
toString(IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar:
        return "scalar";
    case IsaLevel::Avx2:
        return "avx2";
    case IsaLevel::Avx512:
        return "avx512";
    }
    return "?";
}

bool
isaSupported(IsaLevel level)
{
    switch (level) {
    case IsaLevel::Scalar:
        return true;
    case IsaLevel::Avx2:
#if ECSSD_KERNELS_X86
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case IsaLevel::Avx512:
#if ECSSD_KERNELS_X86
        // BW for 512-bit pmaddwd, VL for the 128/256-bit mixing the
        // decode stage does.
        return __builtin_cpu_supports("avx512f") != 0
            && __builtin_cpu_supports("avx512bw") != 0
            && __builtin_cpu_supports("avx512vl") != 0;
#else
        return false;
#endif
    }
    return false;
}

IsaLevel
detectBestIsa()
{
    if (isaSupported(IsaLevel::Avx512))
        return IsaLevel::Avx512;
    if (isaSupported(IsaLevel::Avx2))
        return IsaLevel::Avx2;
    return IsaLevel::Scalar;
}

std::vector<IsaLevel>
supportedIsaLevels()
{
    std::vector<IsaLevel> levels;
    for (const IsaLevel level : kIsaLevels) {
        if (isaSupported(level))
            levels.push_back(level);
    }
    return levels;
}

IsaLevel
resolveIsa(const char *value)
{
    const std::string_view name = value ? value : "";
    if (name.empty() || name == "auto")
        return detectBestIsa();
    for (const IsaLevel level : kIsaLevels) {
        if (name != toString(level))
            continue;
        if (!isaSupported(level)) {
            sim::fatal("E_ISA_UNSUPPORTED: ECSSD_ISA pins '", name,
                       "' but this CPU cannot execute it");
        }
        return level;
    }
    sim::fatal("E_BAD_ISA: unknown ECSSD_ISA value '", name,
               "' (want scalar|avx2|avx512|auto)");
}

IsaLevel
activeIsa()
{
    const int current = g_activeIsa.load(std::memory_order_acquire);
    if (current >= 0)
        return static_cast<IsaLevel>(current);
    // A fatal resolution stores nothing, so every later call dies
    // the same way.
    const IsaLevel resolved = resolveIsa(std::getenv("ECSSD_ISA"));
    g_activeIsa.store(static_cast<int>(resolved),
                      std::memory_order_release);
    return resolved;
}

void
setActiveIsa(IsaLevel level)
{
    if (!isaSupported(level)) {
        sim::fatal("E_ISA_UNSUPPORTED: cannot pin '", toString(level),
                   "' on this CPU");
    }
    g_activeIsa.store(static_cast<int>(level),
                      std::memory_order_release);
}

// ==================================================================
// FP32 pairwise-tree dot
// ==================================================================
//
// NaiveFpMac's adder tree pairs adjacent values level by level and
// carries an odd leftover unchanged.  The pairings are independent of
// the data, and a block of 8 consecutive products is a complete
// 3-level subtree whose root is exactly one level-3 node of the
// global tree.  So every level computes: per-8-block reductions (in
// tree order), one reduced value for the <8 tail, then the ordinary
// scalar pairwise loop over those level-3 nodes.  No operation is
// reassociated, hence bit-identical results at every level.

namespace
{

/** Reduce one 8-product block exactly in tree order. */
inline float
blockSum8Scalar(const float *a, const float *b)
{
    float p[8];
    for (int i = 0; i < 8; ++i)
        p[i] = a[i] * b[i];
    const float q0 = p[0] + p[1];
    const float q1 = p[2] + p[3];
    const float q2 = p[4] + p[5];
    const float q3 = p[6] + p[7];
    const float r0 = q0 + q1;
    const float r1 = q2 + q3;
    return r0 + r1;
}

/** Pairwise tree over a <8-product tail (its 3-level reduction). */
inline float
tailTree(const float *a, const float *b, std::size_t t)
{
    float p[8];
    for (std::size_t i = 0; i < t; ++i)
        p[i] = a[i] * b[i];
    std::size_t count = t;
    while (count > 1) {
        std::size_t next = 0;
        for (std::size_t i = 0; i + 1 < count; i += 2)
            p[next++] = p[i] + p[i + 1];
        if (count % 2 == 1)
            p[next++] = p[count - 1];
        count = next;
    }
    return p[0];
}

#if ECSSD_KERNELS_X86

/**
 * Two blocks per iteration; the shuffles keep every addition on
 * exactly the operand pair the scalar tree adds.
 */
__attribute__((target("avx2"))) void
blockSumsAvx2(const float *a, const float *b, std::size_t m,
              float *out)
{
    typedef float v8f32 __attribute__((vector_size(32)));
    std::size_t i = 0;
    for (; i + 2 <= m; i += 2) {
        v8f32 va, vb, wa, wb;
        std::memcpy(&va, a + 8 * i, 32);
        std::memcpy(&vb, b + 8 * i, 32);
        std::memcpy(&wa, a + 8 * i + 8, 32);
        std::memcpy(&wb, b + 8 * i + 8, 32);
        const v8f32 p0 = va * vb;
        const v8f32 p1 = wa * wb;
        const v8f32 even =
            __builtin_shufflevector(p0, p1, 0, 2, 4, 6, 8, 10, 12, 14);
        const v8f32 odd =
            __builtin_shufflevector(p0, p1, 1, 3, 5, 7, 9, 11, 13, 15);
        const v8f32 l1 = even + odd;
        const v8f32 e2 =
            __builtin_shufflevector(l1, l1, 0, 2, 4, 6, 0, 2, 4, 6);
        const v8f32 o2 =
            __builtin_shufflevector(l1, l1, 1, 3, 5, 7, 1, 3, 5, 7);
        const v8f32 l2 = e2 + o2;
        out[i] = l2[0] + l2[1];
        out[i + 1] = l2[2] + l2[3];
    }
    for (; i < m; ++i)
        out[i] = blockSum8Scalar(a + 8 * i, b + 8 * i);
}

#endif // ECSSD_KERNELS_X86

void
blockSums(const float *a, const float *b, std::size_t m, float *out,
          IsaLevel level)
{
    switch (level) {
#if ECSSD_KERNELS_X86
    case IsaLevel::Avx2:
    case IsaLevel::Avx512:
        blockSumsAvx2(a, b, m, out);
        return;
#endif
    default:
        for (std::size_t i = 0; i < m; ++i)
            out[i] = blockSum8Scalar(a + 8 * i, b + 8 * i);
        return;
    }
}

} // namespace

double
pairwiseDotF32(std::span<const float> a, std::span<const float> b,
               IsaLevel level)
{
    ECSSD_ASSERT(a.size() == b.size(), "dot operand size mismatch");
    const std::size_t n = a.size();
    if (n == 0)
        return 0.0;
    const std::size_t blocks = n / 8;
    const std::size_t tail = n % 8;

    // thread_local: the candidate re-rank calls this concurrently
    // from pool workers.
    thread_local std::vector<float> level3;
    level3.resize(blocks + (tail != 0 ? 1 : 0));
    blockSums(a.data(), b.data(), blocks, level3.data(), level);
    if (tail != 0)
        level3[blocks] =
            tailTree(a.data() + 8 * blocks, b.data() + 8 * blocks,
                     tail);

    // Continue the global tree from level 3 upward: the standard
    // pairwise loop over the level-3 nodes, in place.
    std::size_t count = level3.size();
    while (count > 1) {
        std::size_t next = 0;
        for (std::size_t i = 0; i + 1 < count; i += 2)
            level3[next++] = level3[i] + level3[i + 1];
        if (count % 2 == 1)
            level3[next++] = level3[count - 1];
        count = next;
    }
    return static_cast<double>(level3[0]);
}

double
pairwiseDotF32(std::span<const float> a, std::span<const float> b)
{
    return pairwiseDotF32(a, b, activeIsa());
}

// ==================================================================
// Projection GEMV
// ==================================================================
//
// Lane-parallel over output rows k: each lane runs the scalar
// reference's exact per-output sequence (ascending d, double
// multiply then double add, no FMA), so lanes cannot differ from the
// scalar path by even one ulp.

namespace
{

void
projectGemvScalarT(const float *basis_t, std::size_t full_dim,
                   std::size_t k_count, const float *vec, float *out,
                   std::size_t k_begin)
{
    for (std::size_t k = k_begin; k < k_count; ++k) {
        double acc = 0.0;
        for (std::size_t d = 0; d < full_dim; ++d)
            acc += static_cast<double>(basis_t[d * k_count + k])
                * vec[d];
        out[k] = static_cast<float>(acc);
    }
}

#if ECSSD_KERNELS_X86

__attribute__((target("avx2"))) void
projectGemvAvx2(const float *basis_t, std::size_t full_dim,
                std::size_t k_count, const float *vec, float *out)
{
    std::size_t k = 0;
    for (; k + 8 <= k_count; k += 8) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (std::size_t d = 0; d < full_dim; ++d) {
            const __m256d x =
                _mm256_set1_pd(static_cast<double>(vec[d]));
            const float *w = basis_t + d * k_count + k;
            const __m256d w0 = _mm256_cvtps_pd(_mm_loadu_ps(w));
            const __m256d w1 = _mm256_cvtps_pd(_mm_loadu_ps(w + 4));
            // Explicit mul then add: contraction into FMA would
            // change the rounding the scalar reference performs.
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(w0, x));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(w1, x));
        }
        _mm_storeu_ps(out + k, _mm256_cvtpd_ps(acc0));
        _mm_storeu_ps(out + k + 4, _mm256_cvtpd_ps(acc1));
    }
    projectGemvScalarT(basis_t, full_dim, k_count, vec, out, k);
}

__attribute__((target("avx512f"))) void
projectGemvAvx512(const float *basis_t, std::size_t full_dim,
                  std::size_t k_count, const float *vec, float *out)
{
    std::size_t k = 0;
    for (; k + 16 <= k_count; k += 16) {
        __m512d acc0 = _mm512_setzero_pd();
        __m512d acc1 = _mm512_setzero_pd();
        for (std::size_t d = 0; d < full_dim; ++d) {
            const __m512d x =
                _mm512_set1_pd(static_cast<double>(vec[d]));
            const float *w = basis_t + d * k_count + k;
            const __m512d w0 =
                _mm512_maskz_cvtps_pd(0xff, _mm256_loadu_ps(w));
            const __m512d w1 =
                _mm512_maskz_cvtps_pd(0xff, _mm256_loadu_ps(w + 8));
            acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(w0, x));
            acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(w1, x));
        }
        _mm256_storeu_ps(out + k, _mm512_maskz_cvtpd_ps(0xff, acc0));
        _mm256_storeu_ps(out + k + 8, _mm512_maskz_cvtpd_ps(0xff, acc1));
    }
    projectGemvScalarT(basis_t, full_dim, k_count, vec, out, k);
}

#endif // ECSSD_KERNELS_X86

} // namespace

void
projectGemv(std::span<const float> basisT, std::size_t full_dim,
            std::size_t shrunk_dim, std::span<const float> vec,
            float *out, IsaLevel level)
{
    ECSSD_ASSERT(basisT.size() == full_dim * shrunk_dim
                     && vec.size() == full_dim,
                 "projectGemv operand shape mismatch");
    switch (level) {
#if ECSSD_KERNELS_X86
    case IsaLevel::Avx2:
        projectGemvAvx2(basisT.data(), full_dim, shrunk_dim,
                        vec.data(), out);
        return;
    case IsaLevel::Avx512:
        projectGemvAvx512(basisT.data(), full_dim, shrunk_dim,
                          vec.data(), out);
        return;
#endif
    default:
        projectGemvScalarT(basisT.data(), full_dim, shrunk_dim,
                           vec.data(), out, 0);
        return;
    }
}

// ==================================================================
// Quantization
// ==================================================================

namespace
{

/** Exact scalar reference (mirrors int4.cc's quantizeValue). */
inline int
quantizeValueScalar(float v, float scale)
{
    if (scale == 0.0f)
        return 0;
    const int q = static_cast<int>(std::lround(v / scale));
    return std::clamp(q, -7, 7);
}

void
quantizePackScalar(const float *values, std::size_t n, float scale,
                   std::uint8_t *out, std::size_t begin)
{
    for (std::size_t i = begin; i < n; i += 2) {
        const unsigned lo = static_cast<unsigned>(
                                quantizeValueScalar(values[i], scale))
            & 0xf;
        unsigned hi = 0;
        if (i + 1 < n)
            hi = static_cast<unsigned>(
                     quantizeValueScalar(values[i + 1], scale))
                & 0xf;
        out[i / 2] = static_cast<std::uint8_t>(lo | (hi << 4));
    }
}

#if ECSSD_KERNELS_X86

/**
 * lround() rounds half away from zero; SSE/AVX only round to
 * nearest-even.  Emulated exactly: clamp to [-7, 7] first (identical
 * final result, because every |x| >= 7 lands on ±7 either way),
 * truncate, then add ±1 where |frac| >= 0.5.  The float divide is
 * the same IEEE operation the scalar path performs.
 */
__attribute__((target("avx2"))) __m256i
quantizeLanesAvx2(__m256 v, __m256 scale)
{
    const __m256 seven = _mm256_set1_ps(7.0f);
    const __m256 x = _mm256_min_ps(
        _mm256_max_ps(_mm256_div_ps(v, scale),
                      _mm256_sub_ps(_mm256_setzero_ps(), seven)),
        seven);
    const __m256 trunc = _mm256_round_ps(
        x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 frac = _mm256_sub_ps(x, trunc);
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 half_up = _mm256_cmp_ps(
        _mm256_and_ps(frac, abs_mask), _mm256_set1_ps(0.5f),
        _CMP_GE_OQ);
    const __m256 sign_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(
            static_cast<int>(0x80000000u)));
    const __m256 signed_one = _mm256_or_ps(
        _mm256_and_ps(x, sign_mask), _mm256_set1_ps(1.0f));
    const __m256 rounded = _mm256_add_ps(
        trunc, _mm256_and_ps(half_up, signed_one));
    return _mm256_cvttps_epi32(rounded);
}

__attribute__((target("avx2"))) void
quantizePackAvx2(const float *values, std::size_t n, float scale,
                 std::uint8_t *out)
{
    if (n == 0)
        return;
    if (scale == 0.0f) {
        std::memset(out, 0, (n + 1) / 2);
        return;
    }
    const __m256 vscale = _mm256_set1_ps(scale);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256i q0 = quantizeLanesAvx2(
            _mm256_loadu_ps(values + i), vscale);
        const __m256i q1 = quantizeLanesAvx2(
            _mm256_loadu_ps(values + i + 8), vscale);
        // 16 int32 -> 16 ordered int8.
        const __m256i p16 = _mm256_permute4x64_epi64(
            _mm256_packs_epi32(q0, q1), 0xD8);
        const __m128i p8 = _mm_packs_epi16(
            _mm256_castsi256_si128(p16),
            _mm256_extracti128_si256(p16, 1));
        // Pair nibbles: even byte low, odd byte high.
        const __m128i nib = _mm_set1_epi8(0x0f);
        const __m128i evens =
            _mm_and_si128(_mm_and_si128(p8, nib),
                          _mm_set1_epi16(0x00ff));
        const __m128i odds = _mm_and_si128(
            _mm_srli_epi16(_mm_and_si128(p8, nib), 8), nib);
        const __m128i packed16 =
            _mm_or_si128(evens, _mm_slli_epi16(odds, 4));
        const __m128i p8out = _mm_packus_epi16(packed16, packed16);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(out + i / 2),
                         p8out);
    }
    quantizePackScalar(values, n, scale, out, i);
}

__attribute__((target("avx2"))) float
maxAbsAvx2(const float *values, std::size_t n)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 m = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        m = _mm256_max_ps(
            m, _mm256_and_ps(_mm256_loadu_ps(values + i), abs_mask));
    }
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, m);
    float best = 0.0f;
    for (int j = 0; j < 8; ++j)
        best = std::max(best, lanes[j]);
    for (; i < n; ++i)
        best = std::max(best, std::fabs(values[i]));
    return best;
}

#endif // ECSSD_KERNELS_X86

} // namespace

void
quantizePackSpan(std::span<const float> values, float scale,
                 std::uint8_t *out, IsaLevel level)
{
#if ECSSD_KERNELS_X86
    if (level == IsaLevel::Avx2 || level == IsaLevel::Avx512) {
        quantizePackAvx2(values.data(), values.size(), scale, out);
        return;
    }
#else
    (void)level;
#endif
    quantizePackScalar(values.data(), values.size(), scale, out, 0);
}

float
maxAbsSpan(std::span<const float> values, IsaLevel level)
{
#if ECSSD_KERNELS_X86
    if (level == IsaLevel::Avx2 || level == IsaLevel::Avx512)
        return maxAbsAvx2(values.data(), values.size());
#else
    (void)level;
#endif
    float m = 0.0f;
    for (const float v : values)
        m = std::max(m, std::fabs(v));
    return m;
}

// ==================================================================
// CFP pre-alignment
// ==================================================================
//
// Both preAlign passes are pure integer manipulation of the float
// bit patterns (field extraction, shifts, compares), so every level
// produces identical bits with no rounding caveats.  The scalar
// bodies are the original cfp32.cc loops verbatim; the AVX2 bodies
// compute the same per-lane values with well-defined shifts (counts
// masked to [0, 31] and the >= 32 case selected to zero explicitly,
// matching the scalar semantics) and also serve the AVX-512 level.

namespace
{

inline std::uint32_t
f32Bits(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

constexpr std::uint32_t kF32ExpLanes = 0xffu;
constexpr std::uint32_t kF32FracMask = 0x7fffffu;
constexpr std::uint32_t kF32HiddenOne = 1u << 23;
/** Mirror of the cfp32.hh format constant (kernels.cc stays
 *  header-independent of the format it serves). */
constexpr std::uint32_t kCfp32CompBits = 7;

std::uint32_t
cfp32MaxExponentScalar(const float *values, std::size_t n,
                       std::size_t begin, std::uint32_t emax)
{
    for (std::size_t i = begin; i < n; ++i) {
        const std::uint32_t exp = (f32Bits(values[i]) >> 23)
            & kF32ExpLanes;
        if (exp == kF32ExpLanes)
            sim::fatal("CFP32 pre-alignment rejects NaN/Inf input");
        emax = std::max(emax, exp);
    }
    return emax;
}

std::uint64_t
cfp32AlignScalar(const float *values, std::size_t n,
                 std::uint32_t emax, std::uint32_t *out,
                 std::size_t begin)
{
    std::uint64_t lossy = 0;
    for (std::size_t i = begin; i < n; ++i) {
        const std::uint32_t bits = f32Bits(values[i]);
        const std::uint32_t exp = (bits >> 23) & kF32ExpLanes;
        const std::uint32_t m24 =
            exp == 0 ? 0 : (kF32HiddenOne | (bits & kF32FracMask));
        std::uint32_t significand = 0;
        if (m24 != 0) {
            const std::uint32_t gap = emax - exp;
            const std::uint64_t promoted =
                static_cast<std::uint64_t>(m24)
                << kCfp32CompBits;
            if (gap >= 63) {
                ++lossy;
            } else {
                significand =
                    static_cast<std::uint32_t>(promoted >> gap);
                if ((promoted & ((std::uint64_t(1) << gap) - 1)) != 0)
                    ++lossy;
            }
        }
        out[2 * i] = bits >> 31;
        out[2 * i + 1] = significand;
    }
    return lossy;
}

#if ECSSD_KERNELS_X86

/**
 * 8-lane CFP32 pass 1: extract the biased exponents, trap NaN/Inf,
 * and lane-max them.
 */
__attribute__((target("avx2"))) std::uint32_t
cfp32MaxExponentAvx2(const float *values, std::size_t n)
{
    typedef std::uint32_t v8u32 __attribute__((vector_size(32)));
    typedef std::int32_t v8i32 __attribute__((vector_size(32)));
    v8u32 vmax = {};
    v8i32 bad = {};
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        v8u32 bits;
        std::memcpy(&bits, values + i, 32);
        const v8u32 exp = (bits >> 23) & kF32ExpLanes;
        bad |= (exp == kF32ExpLanes);
        const v8u32 gt = reinterpret_cast<v8u32>(exp > vmax);
        vmax = vmax ^ ((vmax ^ exp) & gt);
    }
    std::uint32_t emax = 0;
    std::int32_t any_bad = 0;
    for (int j = 0; j < 8; ++j) {
        any_bad |= bad[j];
        emax = std::max(emax, vmax[j]);
    }
    if (any_bad != 0)
        sim::fatal("CFP32 pre-alignment rejects NaN/Inf input");
    return cfp32MaxExponentScalar(values, n, i, emax);
}

/**
 * 8-lane CFP32 pass 2.  The scalar branch structure collapses to one
 * straight-line select chain: since the promoted significand occupies
 * 31 bits, every gap >= 31 shifts it to zero and drops all of it, so
 * the gap >= 63 special case and the in-range path agree on (zero,
 * lossy) for the whole [31, inf) range.  Shift counts are masked to
 * [0, 31] and the >= 32 case is selected to zero to keep the C shifts
 * well-defined.
 */
__attribute__((target("avx2"))) std::uint64_t
cfp32AlignAvx2(const float *values, std::size_t n, std::uint32_t emax,
               std::uint32_t *out)
{
    typedef std::uint32_t v8u32 __attribute__((vector_size(32)));
    v8u32 lossy_acc = {};
    std::size_t i = 0;
    const v8u32 vemax = emax - (v8u32){};
    for (; i + 8 <= n; i += 8) {
        v8u32 bits;
        std::memcpy(&bits, values + i, 32);
        const v8u32 sign = bits >> 31;
        const v8u32 exp = (bits >> 23) & kF32ExpLanes;
        const v8u32 nonzero = reinterpret_cast<v8u32>(exp != 0);
        const v8u32 m24 =
            (kF32HiddenOne | (bits & kF32FracMask)) & nonzero;
        const v8u32 gap = (vemax - exp) & nonzero;
        const v8u32 promoted = m24 << kCfp32CompBits;
        const v8u32 in_range = reinterpret_cast<v8u32>(gap < 32);
        const v8u32 gsh = gap & 31;
        const v8u32 sig = (promoted >> gsh) & in_range;
        const v8u32 back = (sig << gsh) & in_range;
        const v8u32 lossy = reinterpret_cast<v8u32>(back != promoted);
        lossy_acc += lossy & 1;
        const v8u32 lo =
            __builtin_shufflevector(sign, sig, 0, 8, 1, 9, 2, 10, 3, 11);
        const v8u32 hi = __builtin_shufflevector(sign, sig, 4, 12, 5, 13,
                                                 6, 14, 7, 15);
        std::memcpy(out + 2 * i, &lo, 32);
        std::memcpy(out + 2 * i + 8, &hi, 32);
    }
    std::uint64_t total = 0;
    for (int j = 0; j < 8; ++j)
        total += lossy_acc[j];
    return total + cfp32AlignScalar(values, n, emax, out, i);
}

#endif // ECSSD_KERNELS_X86

} // namespace

std::uint32_t
cfp32MaxExponent(std::span<const float> values, IsaLevel level)
{
    switch (level) {
#if ECSSD_KERNELS_X86
    case IsaLevel::Avx2:
    case IsaLevel::Avx512:
        return cfp32MaxExponentAvx2(values.data(), values.size());
#endif
    default:
        return cfp32MaxExponentScalar(values.data(), values.size(), 0,
                                      0);
    }
}

std::uint64_t
cfp32AlignSpan(std::span<const float> values, std::uint32_t emax,
               std::uint32_t *out, IsaLevel level)
{
    switch (level) {
#if ECSSD_KERNELS_X86
    case IsaLevel::Avx2:
    case IsaLevel::Avx512:
        return cfp32AlignAvx2(values.data(), values.size(), emax, out);
#endif
    default:
        return cfp32AlignScalar(values.data(), values.size(), emax,
                                out, 0);
    }
}

// ==================================================================
// CFP32 re-rank dot
// ==================================================================
//
// Exact integer accumulation, so the lanes may sum in any order: every
// partial sum of either half is bounded by the half's total of
// |products|, which the dim <= kCfp32SlabMaxDim contract keeps below
// 2^63.  _mm*_mul_epi32 multiplies the even int32 lanes into int64
// products; a 32-bit shift of each 64-bit lane brings the odd lanes
// down for a second multiply.

namespace
{

/**
 * The scalar body, which also finishes the SIMD tails: add row * lo
 * and row * hi over [begin, n) to the two sums, then join them as
 * hi * 2^16 + lo.
 */
__int128
slabDotFrom(const std::int32_t *row, const std::int32_t *lo,
            const std::int32_t *hi, std::size_t begin, std::size_t n,
            std::int64_t lo_sum, std::int64_t hi_sum)
{
    for (std::size_t d = begin; d < n; ++d) {
        lo_sum += static_cast<std::int64_t>(row[d]) * lo[d];
        hi_sum += static_cast<std::int64_t>(row[d]) * hi[d];
    }
    return static_cast<__int128>(hi_sum) * 65536 + lo_sum;
}

#if ECSSD_KERNELS_X86

__attribute__((target("avx2"))) inline std::int64_t
laneSum64x4(__m256i v)
{
    const __m128i pair = _mm_add_epi64(_mm256_castsi256_si128(v),
                                       _mm256_extracti128_si256(v, 1));
    return _mm_cvtsi128_si64(pair) + _mm_extract_epi64(pair, 1);
}

__attribute__((target("avx2"))) __int128
cfp32SlabDotAvx2(const std::int32_t *row, const std::int32_t *lo,
                 const std::int32_t *hi, std::size_t n)
{
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    std::size_t d = 0;
    for (; d + 8 <= n; d += 8) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + d));
        const __m256i l = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lo + d));
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(hi + d));
        const __m256i w_odd = _mm256_srli_epi64(w, 32);
        acc_lo = _mm256_add_epi64(acc_lo, _mm256_mul_epi32(w, l));
        acc_lo = _mm256_add_epi64(
            acc_lo, _mm256_mul_epi32(w_odd, _mm256_srli_epi64(l, 32)));
        acc_hi = _mm256_add_epi64(acc_hi, _mm256_mul_epi32(w, h));
        acc_hi = _mm256_add_epi64(
            acc_hi, _mm256_mul_epi32(w_odd, _mm256_srli_epi64(h, 32)));
    }
    return slabDotFrom(row, lo, hi, d, n, laneSum64x4(acc_lo),
                       laneSum64x4(acc_hi));
}

/**
 * The all-lanes maskz forms compute the unmasked operations: GCC 12's
 * unmasked _mm512_mul_epi32, _mm512_srli_epi64 and
 * _mm512_reduce_add_epi64 read an undefined pass-through operand and
 * warn.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) __int128
cfp32SlabDotAvx512(const std::int32_t *row, const std::int32_t *lo,
                   const std::int32_t *hi, std::size_t n)
{
    constexpr __mmask8 all = 0xff;
    __m512i acc_lo = _mm512_setzero_si512();
    __m512i acc_hi = _mm512_setzero_si512();
    std::size_t d = 0;
    for (; d + 16 <= n; d += 16) {
        const __m512i w = _mm512_loadu_si512(row + d);
        const __m512i l = _mm512_loadu_si512(lo + d);
        const __m512i h = _mm512_loadu_si512(hi + d);
        const __m512i w_odd = _mm512_maskz_srli_epi64(all, w, 32);
        acc_lo = _mm512_add_epi64(acc_lo, _mm512_maskz_mul_epi32(all, w, l));
        acc_lo = _mm512_add_epi64(
            acc_lo, _mm512_maskz_mul_epi32(
                        all, w_odd, _mm512_maskz_srli_epi64(all, l, 32)));
        acc_hi = _mm512_add_epi64(acc_hi, _mm512_maskz_mul_epi32(all, w, h));
        acc_hi = _mm512_add_epi64(
            acc_hi, _mm512_maskz_mul_epi32(
                        all, w_odd, _mm512_maskz_srli_epi64(all, h, 32)));
    }
    const __m256i lo4 =
        _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xf, acc_lo, 0),
                         _mm512_maskz_extracti64x4_epi64(0xf, acc_lo, 1));
    const __m256i hi4 =
        _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xf, acc_hi, 0),
                         _mm512_maskz_extracti64x4_epi64(0xf, acc_hi, 1));
    return slabDotFrom(row, lo, hi, d, n, laneSum64x4(lo4),
                       laneSum64x4(hi4));
}

#endif // ECSSD_KERNELS_X86

} // namespace

__int128
cfp32SlabDot(const std::int32_t *row, const std::int32_t *query_lo,
             const std::int32_t *query_hi, std::size_t dim,
             IsaLevel level)
{
    ECSSD_ASSERT(dim <= kCfp32SlabMaxDim,
                 "CFP32 slab dot is exact only up to 2^16 elements");
    switch (level) {
#if ECSSD_KERNELS_X86
    case IsaLevel::Avx2:
        return cfp32SlabDotAvx2(row, query_lo, query_hi, dim);
    case IsaLevel::Avx512:
        return cfp32SlabDotAvx512(row, query_lo, query_hi, dim);
#endif
    default:
        return slabDotFrom(row, query_lo, query_hi, 0, dim, 0, 0);
    }
}

// ==================================================================
// INT4 LUT kernels
// ==================================================================

namespace
{

std::int64_t
rowDotScalar(const std::uint8_t *row, const std::int16_t *feature,
             std::size_t bytes)
{
    std::int32_t acc = 0;
    for (std::size_t b = 0; b < bytes; ++b) {
        const NibblePair pair = kBytePairs[row[b]];
        acc += static_cast<std::int32_t>(pair.lo) * feature[2 * b]
            + static_cast<std::int32_t>(pair.hi) * feature[2 * b + 1];
    }
    return acc;
}

#if ECSSD_KERNELS_X86

/**
 * Decode 16 packed bytes to 32 sign-extended int8 nibble values in
 * widened-feature order: unpack interleaves (lo0,hi0,lo1,hi1,...),
 * and (x ^ 8) - 8 sign-extends all 16 lanes branchlessly.
 */
__attribute__((target("avx2"))) inline void
decode16Avx2(const std::uint8_t *p, __m256i &w0, __m256i &w1)
{
    const __m128i nib = _mm_set1_epi8(0x0f);
    const __m128i k8 = _mm_set1_epi8(8);
    const __m128i bytes16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    const __m128i lo = _mm_and_si128(bytes16, nib);
    const __m128i hi =
        _mm_and_si128(_mm_srli_epi16(bytes16, 4), nib);
    __m128i w01 = _mm_unpacklo_epi8(lo, hi); // slots 0..15
    __m128i w23 = _mm_unpackhi_epi8(lo, hi); // slots 16..31
    w01 = _mm_sub_epi8(_mm_xor_si128(w01, k8), k8);
    w23 = _mm_sub_epi8(_mm_xor_si128(w23, k8), k8);
    w0 = _mm256_cvtepi8_epi16(w01);
    w1 = _mm256_cvtepi8_epi16(w23);
}

/**
 * Horizontal sum of 8 int32 lanes, reduced *in int32*.  Safe under
 * the kInt32SafeCols gate every SIMD caller sits behind: the sum of
 * |products| over ALL lanes is <= 49 * cols < 2^31, and |a + b| <=
 * |a| + |b| bounds every intermediate pairwise add by that same
 * total — no reduction step can overflow.
 */
__attribute__((target("avx2"))) inline std::int64_t
laneSum256(__m256i acc)
{
    const __m128i quad = _mm_add_epi32(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256(acc, 1));
    const __m128i pair =
        _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0x4e));
    const __m128i single =
        _mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0xb1));
    return _mm_cvtsi128_si32(single);
}

__attribute__((target("avx2"))) std::int64_t
rowDotAvx2(const std::uint8_t *row, const std::int16_t *feature,
           std::size_t bytes)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t b = 0;
    for (; b + 16 <= bytes; b += 16) {
        __m256i w0, w1;
        decode16Avx2(row + b, w0, w1);
        const __m256i f0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(feature + 2 * b));
        const __m256i f1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(feature + 2 * b + 16));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(w0, f0));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(w1, f1));
    }
    std::int64_t total = laneSum256(acc);
    for (; b < bytes; ++b) {
        const NibblePair pair = kBytePairs[row[b]];
        total += static_cast<std::int64_t>(pair.lo) * feature[2 * b]
            + static_cast<std::int64_t>(pair.hi)
                * feature[2 * b + 1];
    }
    return total;
}

/**
 * Decode 32 packed bytes into two 512-bit int16 vectors.  The
 * 256-bit unpack interleaves within 128-bit lanes, so the widened
 * halves come out slot-permuted: w0 holds slots [0..15 | 32..47],
 * w1 holds [16..31 | 48..63].  The matching feature loads below
 * apply the same permutation with two 256-bit loads each.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline void
decode32Avx512(const std::uint8_t *p, __m512i &w0, __m512i &w1)
{
    const __m256i nib = _mm256_set1_epi8(0x0f);
    const __m256i k8 = _mm256_set1_epi8(8);
    const __m256i bytes32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    const __m256i lo = _mm256_and_si256(bytes32, nib);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(bytes32, 4), nib);
    __m256i a = _mm256_unpacklo_epi8(lo, hi);
    __m256i b = _mm256_unpackhi_epi8(lo, hi);
    a = _mm256_sub_epi8(_mm256_xor_si256(a, k8), k8);
    b = _mm256_sub_epi8(_mm256_xor_si256(b, k8), k8);
    w0 = _mm512_cvtepi8_epi16(a);
    w1 = _mm512_cvtepi8_epi16(b);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __m512i
loadFeaturePermuted(const std::int16_t *f, std::size_t lo_slot,
                    std::size_t hi_slot)
{
    const __m256i lo = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(f + lo_slot));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(f + hi_slot));
    return _mm512_maskz_inserti64x4(0xff, _mm512_castsi256_si512(lo),
                                    hi, 1);
}

/** Horizontal sum of 16 int32 lanes; same overflow-safety bound as
 *  laneSum256. */
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline
    std::int64_t
    laneSum512(__m512i acc)
{
    const __m256i folded = _mm256_add_epi32(
        _mm512_maskz_extracti64x4_epi64(0xf, acc, 0),
        _mm512_maskz_extracti64x4_epi64(0xf, acc, 1));
    return laneSum256(folded);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) std::int64_t
rowDotAvx512(const std::uint8_t *row, const std::int16_t *feature,
             std::size_t bytes)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t b = 0;
    for (; b + 32 <= bytes; b += 32) {
        __m512i w0, w1;
        decode32Avx512(row + b, w0, w1);
        const __m512i f0 =
            loadFeaturePermuted(feature + 2 * b, 0, 32);
        const __m512i f1 =
            loadFeaturePermuted(feature + 2 * b, 16, 48);
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(w0, f0));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(w1, f1));
    }
    std::int64_t total = laneSum512(acc);
    if (b + 16 <= bytes) {
        __m256i w0, w1;
        decode16Avx2(row + b, w0, w1);
        __m256i acc2 = _mm256_madd_epi16(
            w0, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    feature + 2 * b)));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(
                      w1, _mm256_loadu_si256(
                              reinterpret_cast<const __m256i *>(
                                  feature + 2 * b + 16))));
        total += laneSum256(acc2);
        b += 16;
    }
    for (; b < bytes; ++b) {
        const NibblePair pair = kBytePairs[row[b]];
        total += static_cast<std::int64_t>(pair.lo) * feature[2 * b]
            + static_cast<std::int64_t>(pair.hi)
                * feature[2 * b + 1];
    }
    return total;
}

/**
 * Row-range wrappers: keep the per-row loop inside one
 * target-attributed body so the row kernel inlines and the dispatch
 * switch runs once per chunk, not once per row.  The main loops are
 * unrolled two rows deep — each row's horizontal reduction is a
 * serial shuffle/add chain, and interleaving two independent chains
 * keeps the vector ports busy through it.
 */
__attribute__((target("avx2"))) void
rowDotRangeAvx2(const std::uint8_t *rows, std::size_t row_stride,
                std::size_t row_count, const std::int16_t *feature,
                std::size_t bytes, std::int64_t *out)
{
    std::size_t i = 0;
    for (; i + 2 <= row_count; i += 2) {
        const std::uint8_t *r0 = rows + i * row_stride;
        const std::uint8_t *r1 = r0 + row_stride;
        __m256i acc0 = _mm256_setzero_si256();
        __m256i acc1 = _mm256_setzero_si256();
        std::size_t b = 0;
        for (; b + 16 <= bytes; b += 16) {
            const __m256i f0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(feature + 2 * b));
            const __m256i f1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(feature + 2 * b
                                                  + 16));
            __m256i w0, w1;
            decode16Avx2(r0 + b, w0, w1);
            acc0 = _mm256_add_epi32(
                acc0, _mm256_add_epi32(_mm256_madd_epi16(w0, f0),
                                       _mm256_madd_epi16(w1, f1)));
            decode16Avx2(r1 + b, w0, w1);
            acc1 = _mm256_add_epi32(
                acc1, _mm256_add_epi32(_mm256_madd_epi16(w0, f0),
                                       _mm256_madd_epi16(w1, f1)));
        }
        std::int64_t t0 = laneSum256(acc0);
        std::int64_t t1 = laneSum256(acc1);
        for (; b < bytes; ++b) {
            const std::int16_t flo = feature[2 * b];
            const std::int16_t fhi = feature[2 * b + 1];
            const NibblePair p0 = kBytePairs[r0[b]];
            const NibblePair p1 = kBytePairs[r1[b]];
            t0 += static_cast<std::int64_t>(p0.lo) * flo
                + static_cast<std::int64_t>(p0.hi) * fhi;
            t1 += static_cast<std::int64_t>(p1.lo) * flo
                + static_cast<std::int64_t>(p1.hi) * fhi;
        }
        out[i] = t0;
        out[i + 1] = t1;
    }
    if (i < row_count)
        out[i] = rowDotAvx2(rows + i * row_stride, feature, bytes);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
rowDotRangeAvx512(const std::uint8_t *rows, std::size_t row_stride,
                  std::size_t row_count, const std::int16_t *feature,
                  std::size_t bytes, std::int64_t *out)
{
    std::size_t i = 0;
    for (; i + 2 <= row_count; i += 2) {
        const std::uint8_t *r0 = rows + i * row_stride;
        const std::uint8_t *r1 = r0 + row_stride;
        __m512i acc0 = _mm512_setzero_si512();
        __m512i acc1 = _mm512_setzero_si512();
        std::size_t b = 0;
        for (; b + 32 <= bytes; b += 32) {
            const __m512i f0 =
                loadFeaturePermuted(feature + 2 * b, 0, 32);
            const __m512i f1 =
                loadFeaturePermuted(feature + 2 * b, 16, 48);
            __m512i w0, w1;
            decode32Avx512(r0 + b, w0, w1);
            acc0 = _mm512_add_epi32(
                acc0, _mm512_add_epi32(_mm512_madd_epi16(w0, f0),
                                       _mm512_madd_epi16(w1, f1)));
            decode32Avx512(r1 + b, w0, w1);
            acc1 = _mm512_add_epi32(
                acc1, _mm512_add_epi32(_mm512_madd_epi16(w0, f0),
                                       _mm512_madd_epi16(w1, f1)));
        }
        std::int64_t t0 = laneSum512(acc0);
        std::int64_t t1 = laneSum512(acc1);
        if (b + 16 <= bytes) {
            const __m256i f0 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(feature + 2 * b));
            const __m256i f1 = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(feature + 2 * b
                                                  + 16));
            __m256i w0, w1;
            decode16Avx2(r0 + b, w0, w1);
            t0 += laneSum256(
                _mm256_add_epi32(_mm256_madd_epi16(w0, f0),
                                 _mm256_madd_epi16(w1, f1)));
            decode16Avx2(r1 + b, w0, w1);
            t1 += laneSum256(
                _mm256_add_epi32(_mm256_madd_epi16(w0, f0),
                                 _mm256_madd_epi16(w1, f1)));
            b += 16;
        }
        for (; b < bytes; ++b) {
            const std::int16_t flo = feature[2 * b];
            const std::int16_t fhi = feature[2 * b + 1];
            const NibblePair p0 = kBytePairs[r0[b]];
            const NibblePair p1 = kBytePairs[r1[b]];
            t0 += static_cast<std::int64_t>(p0.lo) * flo
                + static_cast<std::int64_t>(p0.hi) * fhi;
            t1 += static_cast<std::int64_t>(p1.lo) * flo
                + static_cast<std::int64_t>(p1.hi) * fhi;
        }
        out[i] = t0;
        out[i + 1] = t1;
    }
    if (i < row_count)
        out[i] = rowDotAvx512(rows + i * row_stride, feature, bytes);
}

#endif // ECSSD_KERNELS_X86

} // namespace

void
rowDotWidenedRange(const std::uint8_t *rows, std::size_t row_stride,
                   std::size_t row_count,
                   const std::int16_t *feature, std::size_t bytes,
                   std::int64_t *out, IsaLevel level)
{
    switch (level) {
#if ECSSD_KERNELS_X86
    case IsaLevel::Avx2:
        rowDotRangeAvx2(rows, row_stride, row_count, feature, bytes,
                        out);
        return;
    case IsaLevel::Avx512:
        rowDotRangeAvx512(rows, row_stride, row_count, feature,
                          bytes, out);
        return;
#endif
    default:
        for (std::size_t i = 0; i < row_count; ++i)
            out[i] =
                rowDotScalar(rows + i * row_stride, feature, bytes);
        return;
    }
}

} // namespace numeric
} // namespace ecssd
