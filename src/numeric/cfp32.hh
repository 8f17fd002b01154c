/**
 * @file
 * The Compensation-FP32 (CFP32) vector format.
 *
 * ECSSD pre-aligns every floating-point vector on the host: all
 * elements are right-shifted so they share the vector-wise maximum
 * exponent, and the 8 bits that used to hold the per-element exponent
 * are repurposed as compensation bits that keep the hidden one plus up
 * to seven of the least-significant mantissa bits that the shift would
 * otherwise drop.  The in-SSD MAC can then operate on plain integers.
 *
 * Layout of one CFP32 element (32 bits):
 *
 *   [31]    sign
 *   [30:0]  31-bit aligned significand.  For a shift distance d the
 *           original 24-bit significand (hidden one included) sits at
 *           bits [30-d : 7-d]; shifts up to 7 are lossless.
 *
 * The shared exponent is stored once per vector.
 */

#ifndef ECSSD_NUMERIC_CFP32_HH
#define ECSSD_NUMERIC_CFP32_HH

#include <cstdint>
#include <span>
#include <vector>

#include "numeric/fp32.hh"
#include "numeric/kernels.hh"

namespace ecssd
{
namespace numeric
{

/** Number of compensation bits gained by repurposing the exponent. */
constexpr int cfp32CompensationBits = 7;

/** Width of the aligned significand. */
constexpr int cfp32SignificandBits = 31;

/** One pre-aligned element: sign and 31-bit aligned significand. */
struct Cfp32Element
{
    std::uint32_t sign;
    std::uint32_t significand;
};

/**
 * A pre-aligned vector: a shared biased exponent plus per-element
 * sign/significand pairs.
 */
class Cfp32Vector
{
  public:
    Cfp32Vector() = default;

    /** Shared biased exponent (the vector-wise maximum). */
    std::uint32_t sharedExponent() const { return sharedExponent_; }

    std::size_t size() const { return elements_.size(); }
    bool empty() const { return elements_.empty(); }

    const Cfp32Element &operator[](std::size_t i) const
    {
        return elements_[i];
    }

    const std::vector<Cfp32Element> &elements() const
    {
        return elements_;
    }

    /**
     * Number of elements whose alignment shift dropped nonzero bits
     * (i.e., elements that are not exactly representable in CFP32).
     */
    std::uint64_t lossyElements() const { return lossyElements_; }

    /** Decode element @p i back to the nearest float. */
    float toFloat(std::size_t i) const;

    /** Decode the whole vector. */
    std::vector<float> toFloats() const;

    /** Storage footprint in bytes (elements + one shared exponent). */
    std::uint64_t
    storageBytes() const
    {
        return elements_.size() * sizeof(std::uint32_t) + 1;
    }

    /**
     * Pre-align @p values into CFP32 (the host-side Pre_align() step),
     * through the runtime-dispatched kernels at activeIsa().
     *
     * NaN/Inf inputs are rejected with sim::fatal, matching the API
     * contract that only finite activations/weights reach the device.
     */
    static Cfp32Vector preAlign(std::span<const float> values);

    /** ISA-pinned overload (differential tests). */
    static Cfp32Vector preAlign(std::span<const float> values,
                                IsaLevel level);

  private:
    std::uint32_t sharedExponent_ = 0;
    std::vector<Cfp32Element> elements_;
    std::uint64_t lossyElements_ = 0;
};

/**
 * Fraction of elements across @p vectors that survive pre-alignment
 * with no bit loss (the paper reports > 95% on real models).
 */
double losslessFraction(std::span<const Cfp32Vector> vectors);

/**
 * Pre-align @p values into one row of a CFP32 slab, the layout the
 * re-rank dot (numeric::cfp32SlabDot) reads: values.size() signed
 * significands (sign applied) at @p out.  Returns the shared biased
 * exponent.  The same bits as Cfp32Vector::preAlign, through the same
 * kernels, without a per-row allocation.
 */
std::uint32_t preAlignSigned(std::span<const float> values,
                             std::int32_t *out, IsaLevel level);

/**
 * Split the significands of the pre-aligned @p query into the signed
 * 16-bit low and 15-bit high halves numeric::cfp32SlabDot takes:
 * significand = hi * 2^16 + lo, each half carrying the element's
 * sign.  @p lo and @p hi hold query.size() values each.
 */
void splitSignificands(const Cfp32Vector &query, std::int32_t *lo,
                       std::int32_t *hi);

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_CFP32_HH
