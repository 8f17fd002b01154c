/**
 * @file
 * Out-of-core streaming weight deploy (EcssdApi::weightDeploy's
 * learning-adaptive layout build).
 *
 * A host-resident build needs the whole hotness vector in memory
 * before LearningAdaptiveLayout::build() can sort it — O(rows)
 * doubles plus the sort's index array.  At extreme-classification
 * scale (10^7..10^8 rows) that dominates deploy-host memory, so this
 * pipeline restructures the same computation as a stream:
 *
 *   rows -> quantize -> hot-degree score -> run formation (sorted
 *   runs sized to the host budget, spilled through the simulated
 *   flash) -> k-way tournament merge -> SortedStreamLayoutBuilder
 *
 * Every transient host allocation charges a sim::MemoryBudget, so the
 * configured ceiling (EcssdOptions::deployHostBudgetBytes) is
 * *enforced* — an overdraft dies with E_DEPLOY_BUDGET — and the
 * budget's high-water mark is reported as the deploy's peak host
 * bytes.  The produced placement is bit-for-bit identical to the
 * host-resident build() because the merge replays rows in exactly
 * build()'s sort order (see SortedStreamLayoutBuilder).
 *
 * Timing model: the source streams over the host link while runs
 * form; spill writes and merge reads are timed through the device's
 * FTL (top-of-logical-space staging pages, trimmed afterwards, the
 * staged-redeploy idiom); and the final channel programs overlap the
 * merge of the next run, so deploy wall-time tracks program bandwidth
 * rather than sort time.
 *
 * Simulator note: the spilled run records are bytes *on flash* in
 * the modeled system.  The simulator's flash array is a timing model
 * without a data plane, so the record payloads live in a host-side
 * stand-in store that is deliberately NOT budget-charged — exactly
 * like deployed weights, which stay host-side by reference while
 * modeled as flash-resident.
 */

#ifndef ECSSD_ECSSD_STREAMING_DEPLOY_HH
#define ECSSD_ECSSD_STREAMING_DEPLOY_HH

#include <cstdint>
#include <memory>
#include <span>

#include "layout/strategy.hh"
#include "numeric/matrix.hh"
#include "sim/types.hh"
#include "ssdsim/config.hh"
#include "ssdsim/ssd.hh"

namespace ecssd
{

/**
 * A weight matrix exposed one row at a time: the streaming deploy
 * never asks for more than one row of it, so implementations can
 * generate rows procedurally (synthetic benchmarks at scales no host
 * buffer could hold) or adapt an in-memory matrix.
 */
class WeightRowSource
{
  public:
    virtual ~WeightRowSource() = default;

    virtual std::uint64_t rows() const = 0;
    virtual std::size_t cols() const = 0;

    /** Materialize row @p row into @p out (exactly cols() floats). */
    virtual void materialize(std::uint64_t row,
                             std::span<float> out) const = 0;
};

/** Adapter over a host-resident FloatMatrix. */
class MatrixRowSource : public WeightRowSource
{
  public:
    /** @param matrix Kept by reference; must outlive the source. */
    explicit MatrixRowSource(const numeric::FloatMatrix &matrix)
        : matrix_(matrix)
    {
    }

    std::uint64_t rows() const override { return matrix_.rows(); }
    std::size_t cols() const override { return matrix_.cols(); }
    void materialize(std::uint64_t row,
                     std::span<float> out) const override;

  private:
    const numeric::FloatMatrix &matrix_;
};

/**
 * Procedurally generated rows (seeded, deterministic): the >=10M-row
 * boundedness tests' source.  Row values are uniform in [-1, 1) from
 * a per-row generator, so any row can be materialized independently
 * with O(1) state.
 */
class SyntheticRowSource : public WeightRowSource
{
  public:
    SyntheticRowSource(std::uint64_t rows, std::size_t cols,
                       std::uint64_t seed)
        : rows_(rows), cols_(cols), seed_(seed)
    {
    }

    std::uint64_t rows() const override { return rows_; }
    std::size_t cols() const override { return cols_; }
    void materialize(std::uint64_t row,
                     std::span<float> out) const override;

  private:
    std::uint64_t rows_;
    std::size_t cols_;
    std::uint64_t seed_;
};

/** Knobs of one streaming deploy. */
struct StreamingDeployConfig
{
    /**
     * Hard ceiling on transient host bytes (the accounting
     * allocator's limit).  0 = unlimited: the pipeline degenerates
     * to a single in-memory run (no spill) but still reports its
     * high-water mark.
     */
    std::uint64_t hostBudgetBytes = 0;

    /** Stored bytes of one deployed weight row (FP32: 4 * hidden
     *  dim; CFP16 halves it).  Prices the final channel programs. */
    std::uint64_t rowBytes = 0;

    /** Projection seed (must match the screener's for placement
     *  equivalence with the host-resident path). */
    std::uint64_t seed = 1;

    /** Optional pre-trained K x D projection (kept by reference). */
    const numeric::FloatMatrix *trainedProjection = nullptr;
};

/** Outcome of one streaming deploy. */
struct StreamingDeployResult
{
    /** The placement, bit-identical to build() on the same rows. */
    std::unique_ptr<layout::LearningAdaptiveLayout> layout;
    /** Simulated deploy wall-time. */
    sim::Tick deployTime = 0;
    /** Accounting allocator's high-water mark. */
    std::uint64_t hostPeakBytes = 0;
    /** The enforced ceiling (0 = unlimited). */
    std::uint64_t hostBudgetBytes = 0;
    /** Sorted runs spilled through the flash (0 = single-run). */
    std::uint64_t runsSpilled = 0;
    /** Staging pages written for run spills. */
    std::uint64_t spillPagesWritten = 0;
    /** Staging pages read back by the merge. */
    std::uint64_t spillPagesRead = 0;
    std::uint64_t rowsPlaced = 0;
};

/**
 * Run the streaming deploy pipeline over @p source.
 *
 * @param source Weight rows, one at a time.
 * @param shrunk_dim Screener projection width K.
 * @param channels Flash channels to place across.
 * @param ssd_config Device geometry/timing for the spill IO and the
 *        program-bandwidth model.
 * @param config Budget and projection knobs.
 * @param device Optional live device whose FTL times the spill IO
 *        (its staging pages are trimmed afterwards); nullptr builds
 *        a private device from @p ssd_config.
 */
StreamingDeployResult streamingWeightDeploy(
    const WeightRowSource &source, std::size_t shrunk_dim,
    unsigned channels, const ssdsim::SsdConfig &ssd_config,
    const StreamingDeployConfig &config,
    ssdsim::SsdDevice *device = nullptr);

} // namespace ecssd

#endif // ECSSD_ECSSD_STREAMING_DEPLOY_HH
