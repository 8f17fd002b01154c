/**
 * @file
 * Functional models of the three floating-point MAC datapaths the
 * paper compares (Section 4.2, Fig 5, Fig 9):
 *
 *  - NaiveFpMac: a conventional FP32 multiply + adder-tree pipeline in
 *    which every addition performs exponent comparison, mantissa
 *    shifting, and normalization.
 *  - SkHynixMac: the post-multiplication pre-alignment design of the
 *    GDDR6-AiM ISSCC'22 paper; products are aligned once to the
 *    maximum product exponent before an integer accumulation tree.
 *  - AlignmentFreeMac: ECSSD's datapath, which consumes host
 *    pre-aligned CFP32 vectors and runs a pure integer multiply +
 *    accumulate with one final normalization.
 *
 * Each datapath is bit-faithful about where rounding/truncation occurs
 * and records micro-operation counts that the circuit model converts
 * into area/energy.
 */

#ifndef ECSSD_NUMERIC_MAC_HH
#define ECSSD_NUMERIC_MAC_HH

#include <cstdint>
#include <span>

#include "numeric/cfp32.hh"

namespace ecssd
{
namespace numeric
{

/** Micro-operation counts of one dot-product evaluation. */
struct MacOpCounts
{
    std::uint64_t mantissaMultiplies = 0;
    std::uint64_t exponentAdds = 0;
    std::uint64_t exponentCompares = 0;
    std::uint64_t mantissaShifts = 0;
    std::uint64_t mantissaAdds = 0;
    std::uint64_t normalizations = 0;

    MacOpCounts &operator+=(const MacOpCounts &other);

    /** Count of alignment-related micro-ops (compares + shifts). */
    std::uint64_t
    alignmentOps() const
    {
        return exponentCompares + mantissaShifts;
    }
};

/** Result of a dot-product with its operation profile. */
struct MacResult
{
    double value = 0.0;
    MacOpCounts ops;
};

/**
 * Conventional FP32 MAC: per-element multiply in binary32 followed by
 * a binary32 pairwise adder tree.  Every tree add aligns and
 * normalizes, which is where the area goes.
 */
class NaiveFpMac
{
  public:
    /** Dot product of @p a and @p b (must be the same length). */
    static MacResult dot(std::span<const float> a,
                         std::span<const float> b);
};

/**
 * SK Hynix AiM-style MAC: FP32 multiplies, then a single alignment of
 * all products to the running maximum exponent, then an integer
 * accumulation tree and one final normalization.
 */
class SkHynixMac
{
  public:
    static MacResult dot(std::span<const float> a,
                         std::span<const float> b);
};

/**
 * ECSSD's alignment-free MAC over pre-aligned CFP32 vectors.  The
 * datapath is a 31x31-bit integer multiplier feeding a wide two's
 * complement accumulator; the only floating-point work is one final
 * scale by the two shared exponents.
 */
class AlignmentFreeMac
{
  public:
    /**
     * Dot product of two CFP32 vectors.
     *
     * @pre a.size() == b.size().
     */
    static MacResult dot(const Cfp32Vector &a, const Cfp32Vector &b);

    /**
     * The one final normalization: scale the exact integer sum
     * @p acc of two CFP32 vectors by their shared biased exponents.
     * Every CFP32 re-rank path finishes here, so an equal integer
     * gives an equal double.
     */
    static double normalize(__int128 acc, std::uint32_t exponent_a,
                            std::uint32_t exponent_b);
};

/** Exact (double-precision) reference for accuracy comparisons. */
double referenceDot(std::span<const float> a, std::span<const float> b);

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_MAC_HH
