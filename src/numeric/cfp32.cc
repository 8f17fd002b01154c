#include "cfp32.hh"

#include <cmath>
#include <cstddef>

#include "sim/logging.hh"

namespace ecssd
{
namespace numeric
{

// The align kernel writes interleaved (sign, significand) uint32
// pairs straight into the element array.
static_assert(sizeof(Cfp32Element) == 2 * sizeof(std::uint32_t)
                  && offsetof(Cfp32Element, sign) == 0
                  && offsetof(Cfp32Element, significand)
                      == sizeof(std::uint32_t),
              "Cfp32Element must match the kernel pair layout");

Cfp32Vector
Cfp32Vector::preAlign(std::span<const float> values, IsaLevel level)
{
    Cfp32Vector out;
    out.elements_.resize(values.size());

    // Pass 1: the vector-wise maximum exponent (fatal on NaN/Inf).
    out.sharedExponent_ = cfp32MaxExponent(values, level);

    // Pass 2: shift every significand so it shares emax.  The 24-bit
    // significand is first promoted into the 31-bit field (left by the
    // 7 compensation bits), then shifted right by the exponent gap.
    out.lossyElements_ = cfp32AlignSpan(
        values, out.sharedExponent_,
        reinterpret_cast<std::uint32_t *>(out.elements_.data()),
        level);
    return out;
}

Cfp32Vector
Cfp32Vector::preAlign(std::span<const float> values)
{
    return preAlign(values, activeIsa());
}

float
Cfp32Vector::toFloat(std::size_t i) const
{
    const Cfp32Element &elem = elements_[i];
    if (elem.significand == 0)
        return elem.sign ? -0.0f : 0.0f;
    // value = m31 * 2^(emax - bias - 23 - compensation)
    const int exp2 = static_cast<int>(sharedExponent_)
        - fp32ExponentBias - fp32MantissaBits - cfp32CompensationBits;
    const double magnitude =
        std::ldexp(static_cast<double>(elem.significand), exp2);
    return static_cast<float>(elem.sign ? -magnitude : magnitude);
}

std::vector<float>
Cfp32Vector::toFloats() const
{
    std::vector<float> out;
    out.reserve(elements_.size());
    for (std::size_t i = 0; i < elements_.size(); ++i)
        out.push_back(toFloat(i));
    return out;
}

double
losslessFraction(std::span<const Cfp32Vector> vectors)
{
    std::uint64_t total = 0;
    std::uint64_t lossy = 0;
    for (const Cfp32Vector &vec : vectors) {
        total += vec.size();
        lossy += vec.lossyElements();
    }
    if (total == 0)
        return 1.0;
    return 1.0 - static_cast<double>(lossy) / static_cast<double>(total);
}

std::uint32_t
preAlignSigned(std::span<const float> values, std::int32_t *out,
               IsaLevel level)
{
    // thread_local: the classifier aligns rows from pool workers.
    thread_local std::vector<Cfp32Element> pairs;
    pairs.resize(values.size());
    const std::uint32_t exponent = cfp32MaxExponent(values, level);
    cfp32AlignSpan(values, exponent,
                   reinterpret_cast<std::uint32_t *>(pairs.data()),
                   level);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto significand =
            static_cast<std::int32_t>(pairs[i].significand);
        out[i] = pairs[i].sign != 0 ? -significand : significand;
    }
    return exponent;
}

void
splitSignificands(const Cfp32Vector &query, std::int32_t *lo,
                  std::int32_t *hi)
{
    for (std::size_t i = 0; i < query.size(); ++i) {
        const Cfp32Element &elem = query[i];
        const auto low = static_cast<std::int32_t>(elem.significand
                                                   & 0xffff);
        const auto high =
            static_cast<std::int32_t>(elem.significand >> 16);
        lo[i] = elem.sign != 0 ? -low : low;
        hi[i] = elem.sign != 0 ? -high : high;
    }
}

} // namespace numeric
} // namespace ecssd
