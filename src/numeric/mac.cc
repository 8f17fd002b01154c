#include "mac.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "numeric/kernels.hh"
#include "sim/logging.hh"

namespace ecssd
{
namespace numeric
{

MacOpCounts &
MacOpCounts::operator+=(const MacOpCounts &other)
{
    mantissaMultiplies += other.mantissaMultiplies;
    exponentAdds += other.exponentAdds;
    exponentCompares += other.exponentCompares;
    mantissaShifts += other.mantissaShifts;
    mantissaAdds += other.mantissaAdds;
    normalizations += other.normalizations;
    return *this;
}

MacResult
NaiveFpMac::dot(std::span<const float> a, std::span<const float> b)
{
    ECSSD_ASSERT(a.size() == b.size(), "dot operand size mismatch");
    MacResult result;

    // The value comes from the runtime-dispatched pairwise kernel,
    // which evaluates exactly this datapath — binary32 products fed
    // into the binary32 pairwise adder tree — at any ISA level with
    // identical bits (the tree's pairings are data-independent, so
    // SIMD lanes reassociate nothing; see numeric/kernels.hh).
    result.value = pairwiseDotF32(a, b);

    // Micro-op counts in closed form.  Multiply stage: one mantissa
    // multiply, exponent add, and normalize per element.  Adder
    // tree: each two-input FP add (a tree with n leaves performs
    // n - 1 of them, carries included) does an exponent compare, one
    // mantissa shift, a mantissa add, and a normalize.
    const std::uint64_t n = a.size();
    const std::uint64_t adds = n > 0 ? n - 1 : 0;
    result.ops.mantissaMultiplies = n;
    result.ops.exponentAdds = n;
    result.ops.normalizations = n + adds;
    result.ops.exponentCompares = adds;
    result.ops.mantissaShifts = adds;
    result.ops.mantissaAdds = adds;
    return result;
}

MacResult
SkHynixMac::dot(std::span<const float> a, std::span<const float> b)
{
    ECSSD_ASSERT(a.size() == b.size(), "dot operand size mismatch");
    MacResult result;
    if (a.empty())
        return result;

    // Multiply stage in binary32 (same rounding point as hardware).
    struct Product
    {
        std::uint32_t sign;
        std::uint32_t exponent;
        std::uint64_t significand48;
    };
    std::vector<Product> products;
    products.reserve(a.size());
    std::uint32_t emax = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Fp32Fields fa = decompose(a[i]);
        const Fp32Fields fb = decompose(b[i]);
        result.ops.mantissaMultiplies += 1;
        result.ops.exponentAdds += 1;
        Product p{fa.sign ^ fb.sign, 0, 0};
        const std::uint64_t ma = significand24(fa);
        const std::uint64_t mb = significand24(fb);
        if (ma != 0 && mb != 0) {
            p.significand48 = ma * mb; // up to 48 bits
            p.exponent = fa.exponent + fb.exponent;
        }
        // Running max-exponent scan: one compare per product.
        result.ops.exponentCompares += 1;
        emax = std::max(emax, p.exponent);
        products.push_back(p);
    }

    // Alignment stage: shift every 48-bit product once so all share
    // emax, keeping 16 guard bits so moderate gaps stay lossless.
    constexpr int guardBits = 16;
    __int128 acc = 0;
    for (const Product &p : products) {
        result.ops.mantissaShifts += 1;
        result.ops.mantissaAdds += 1;
        if (p.significand48 == 0)
            continue;
        const std::uint32_t gap = emax - p.exponent;
        __int128 aligned;
        if (gap >= 64 + guardBits) {
            aligned = 0;
        } else if (gap >= guardBits) {
            aligned = static_cast<__int128>(
                p.significand48 >> (gap - guardBits));
        } else {
            aligned = static_cast<__int128>(p.significand48)
                << (guardBits - gap);
        }
        acc += p.sign ? -aligned : aligned;
    }

    result.ops.normalizations += 1;
    // value = acc * 2^(emax - 2*bias - 2*23 - guard)
    const int exp2 = static_cast<int>(emax) - 2 * fp32ExponentBias
        - 2 * fp32MantissaBits - guardBits;
    result.value = std::ldexp(static_cast<double>(acc), exp2);
    return result;
}

MacResult
AlignmentFreeMac::dot(const Cfp32Vector &a, const Cfp32Vector &b)
{
    ECSSD_ASSERT(a.size() == b.size(), "dot operand size mismatch");
    MacResult result;
    if (a.empty())
        return result;

    // Pure integer datapath: 31x31 multiply, 2's-complement
    // accumulate.  62-bit products over <= 2^16 elements fit a 128-bit
    // accumulator with room to spare.
    __int128 acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Cfp32Element &ea = a[i];
        const Cfp32Element &eb = b[i];
        result.ops.mantissaMultiplies += 1;
        result.ops.mantissaAdds += 1;
        const __int128 product =
            static_cast<__int128>(
                static_cast<std::uint64_t>(ea.significand)
                * static_cast<std::uint64_t>(eb.significand));
        acc += (ea.sign ^ eb.sign) ? -product : product;
    }

    result.ops.normalizations += 1;
    result.value =
        normalize(acc, a.sharedExponent(), b.sharedExponent());
    return result;
}

double
AlignmentFreeMac::normalize(__int128 acc, std::uint32_t exponent_a,
                            std::uint32_t exponent_b)
{
    // Each significand is m * 2^(E - bias - 23 - 7); the product scale
    // therefore uses both shared exponents.
    const int exp2 = static_cast<int>(exponent_a)
        + static_cast<int>(exponent_b) - 2 * fp32ExponentBias
        - 2 * (fp32MantissaBits + cfp32CompensationBits);
    return std::ldexp(static_cast<double>(acc), exp2);
}

double
referenceDot(std::span<const float> a, std::span<const float> b)
{
    ECSSD_ASSERT(a.size() == b.size(), "dot operand size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

} // namespace numeric
} // namespace ecssd
