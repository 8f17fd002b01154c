#include "autotune.hh"

#include <algorithm>

#include "numeric/int4.hh"

namespace ecssd
{
namespace numeric
{

namespace
{

/**
 * Packed bytes one parallel chunk should keep resident: half a
 * typical 512KB-1MB L2 so the widened feature, outputs, and the
 * other hyperthread still fit.
 */
constexpr std::size_t kChunkByteBudget = 256 * 1024;

constexpr std::size_t kMinRowChunk = 512;
constexpr std::size_t kMaxRowChunk = 4096;

} // namespace

std::size_t
rowChunkFor(std::size_t bytes_per_row)
{
    const std::size_t bytes = std::max<std::size_t>(1, bytes_per_row);
    std::size_t chunk = kMaxRowChunk;
    while (chunk > kMinRowChunk && chunk * bytes > kChunkByteBudget)
        chunk /= 2;
    return chunk;
}

KernelPlan
autotuneScreenerKernels(const Int4Matrix &matrix, IsaLevel isa)
{
    KernelPlan plan;
    plan.isa = isa;
    plan.rows = matrix.rows();
    plan.cols = matrix.cols();
    plan.bytesPerRow = matrix.bytesPerRow();
    plan.rowChunk = rowChunkFor(plan.bytesPerRow);
    return plan;
}

} // namespace numeric
} // namespace ecssd
