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

std::size_t
batchQueryTile(std::size_t bytes_per_row, IsaLevel isa)
{
    // Register budget: the batch kernel keeps one accumulator per
    // query plus the decoded row live, so AVX-512's 32 zmm afford a
    // 16-wide tile while AVX2's 16 ymm top out at 8.  The portable
    // levels run a per-query loop (no register tiling); they keep
    // the 8-wide blocking for feature locality.
    const std::size_t register_cap =
        isa == IsaLevel::Avx512 ? 16 : 8;

    // L1 share: each query contributes a widened feature of
    // 2 * bytes_per_row int16 values (4 * bytes_per_row bytes), and
    // the whole tile streams it again for every row — the tile must
    // stay within half a typical 32KB L1 next to the packed rows.
    constexpr std::size_t kTileFeatureBudget = 16 * 1024;
    const std::size_t feature_bytes =
        std::max<std::size_t>(1, 4 * bytes_per_row);
    const std::size_t l1_cap =
        std::max<std::size_t>(1, kTileFeatureBudget / feature_bytes);

    std::size_t tile = 1;
    while (tile * 2 <= std::min(register_cap, l1_cap))
        tile *= 2;
    return tile;
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
    plan.queryTile = batchQueryTile(plan.bytesPerRow, isa);
    return plan;
}

} // namespace numeric
} // namespace ecssd
