/**
 * @file
 * Deterministic kernel autotuner for the INT4 screener.
 *
 * At deploy time the screener asks for a KernelPlan: which ISA level
 * to run and how many rows one parallel chunk should cover (the L2
 * tiling of the packed matrix).
 *
 * Selection is a pure function of (matrix shape, ISA level): nothing
 * is timed, so the same shape always yields the same plan and golden
 * runs stay reproducible on any machine (see docs/MODELING.md §14).
 */

#ifndef ECSSD_NUMERIC_AUTOTUNE_HH
#define ECSSD_NUMERIC_AUTOTUNE_HH

#include <cstddef>

#include "numeric/kernels.hh"

namespace ecssd
{
namespace numeric
{

class Int4Matrix;

/** The screener's tuned kernel configuration. */
struct KernelPlan
{
    IsaLevel isa = IsaLevel::Scalar;
    /** Matrix shape the plan was tuned for. */
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t bytesPerRow = 0;
    /** Rows per parallel chunk (also the single-query row tile). */
    std::size_t rowChunk = 0;
};

/**
 * Rows per parallel chunk for @p bytes_per_row: the largest power of
 * two in [512, 4096] whose packed rows fit the chunk's L2 budget
 * (fewer dispatches while the chunk stays resident); 512 when even
 * that overflows it.
 */
std::size_t rowChunkFor(std::size_t bytes_per_row);

/** Tune the screener kernels for @p matrix at @p isa. */
KernelPlan autotuneScreenerKernels(const Int4Matrix &matrix,
                                   IsaLevel isa);

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_AUTOTUNE_HH
