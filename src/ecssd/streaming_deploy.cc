#include "streaming_deploy.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "numeric/int4.hh"
#include "numeric/kernels.hh"
#include "numeric/projection.hh"
#include "sim/budget.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace ecssd
{

void
MatrixRowSource::materialize(std::uint64_t row,
                             std::span<float> out) const
{
    const std::span<const float> src = matrix_.row(row);
    ECSSD_ASSERT(out.size() == src.size(),
                 "row buffer/matrix width mismatch");
    std::copy(src.begin(), src.end(), out.begin());
}

void
SyntheticRowSource::materialize(std::uint64_t row,
                                std::span<float> out) const
{
    ECSSD_ASSERT(out.size() == cols_,
                 "row buffer/source width mismatch");
    // One splitmix64-expanded generator per row: any row is
    // materializable independently, which is what lets the pipeline
    // stream 10^7+ rows without a backing matrix.
    sim::Rng rng(seed_ ^ (row * 0x9e3779b97f4a7c15ULL + 0x6a5d));
    for (std::size_t c = 0; c < cols_; ++c)
        out[c] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

namespace
{

/** One (hot-degree, row) record of a sorted run. */
struct RunRecord
{
    double mass;
    std::uint64_t row;
};

/** build()'s sort key: hotness descending, row ascending. */
inline bool
hotter(const RunRecord &a, const RunRecord &b)
{
    if (a.mass != b.mass)
        return a.mass > b.mass;
    return a.row < b.row;
}

/** Tournament entry: a run's current head. */
struct HeapEntry
{
    double mass;
    std::uint64_t row;
    std::uint32_t run;
};

/** priority_queue "less": the hottest entry pops first. */
struct HeapLess
{
    bool
    operator()(const HeapEntry &a, const HeapEntry &b) const
    {
        if (a.mass != b.mass)
            return a.mass < b.mass;
        return a.row > b.row;
    }
};

/** |q| sum over a packed nibble row — Int4Matrix::rowAbsSum's exact
 *  arithmetic, applied to a scratch row. */
std::int64_t
packedAbsSum(std::span<const std::uint8_t> packed, std::size_t cols)
{
    std::int64_t acc = 0;
    for (std::size_t c = 0; c < cols; ++c) {
        const std::uint8_t byte = packed[c / 2];
        const std::uint8_t nibble =
            (c % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
        const int value = (nibble & 0x8)
            ? static_cast<int>(nibble) - 16
            : static_cast<int>(nibble);
        acc += std::abs(value);
    }
    return acc;
}

constexpr std::uint64_t kRecordBytes = sizeof(RunRecord);
constexpr std::uint64_t kMinRunRecords = 1024;

} // namespace

StreamingDeployResult
streamingWeightDeploy(const WeightRowSource &source,
                      std::size_t shrunk_dim, unsigned channels,
                      const ssdsim::SsdConfig &ssd_config,
                      const StreamingDeployConfig &config,
                      ssdsim::SsdDevice *device)
{
    const std::uint64_t rows = source.rows();
    const std::size_t cols = source.cols();
    ECSSD_ASSERT(rows > 0 && cols > 0, "empty weight source");
    ECSSD_ASSERT(shrunk_dim > 0, "empty projection");

    sim::MemoryBudget budget(config.hostBudgetBytes);

    // The projection basis is deploy-transient host state: K x D
    // twice (the basis and its transpose for the SIMD GEMV).
    const std::uint64_t projector_bytes =
        2ULL * shrunk_dim * cols * sizeof(float);
    sim::BudgetCharge projector_charge(budget, projector_bytes);
    const numeric::Projector projector =
        config.trainedProjection
        ? numeric::Projector(*config.trainedProjection)
        : numeric::Projector(cols, shrunk_dim, config.seed);

    // Per-row scratch: the materialized row, its projection, and the
    // packed INT4 image the hot-degree score reads.
    const std::size_t packed_bytes = (shrunk_dim + 1) / 2;
    sim::BudgetCharge scratch_charge(
        budget, cols * sizeof(float) + shrunk_dim * sizeof(float)
                    + packed_bytes);
    std::vector<float> row_scratch(cols);
    std::vector<float> projected;
    projected.reserve(shrunk_dim);
    std::vector<std::uint8_t> packed(packed_bytes);

    // The layout product (3 bytes per row) plus the builder's
    // O(channels) greedy state.  This is the floor any budget must
    // clear: the placement itself is host-resident by design.
    sim::BudgetCharge builder_charge(
        budget, 3ULL * rows + channels * 24ULL);
    layout::SortedStreamLayoutBuilder builder(rows, channels);

    // Run capacity: half of whatever the budget still allows, so the
    // merge read-ahead and heap fit in the rest.  Unlimited budgets
    // degenerate to one in-memory run (no spill) — the host-resident
    // path's behaviour, still fully accounted.
    std::uint64_t run_capacity = rows;
    if (budget.limit() != 0) {
        const std::uint64_t avail =
            budget.limit() > budget.used()
            ? budget.limit() - budget.used()
            : 0;
        run_capacity = std::max(kMinRunRecords,
                                (avail / 2) / kRecordBytes);
        run_capacity = std::min(run_capacity, rows);
    }
    sim::BudgetCharge run_charge(budget,
                                 run_capacity * kRecordBytes);

    // Private device when the caller has none: the spill IO still
    // runs through a real FTL so GC/wear of the staging window are
    // modeled, not assumed.
    std::unique_ptr<ssdsim::SsdDevice> local_device;
    if (device == nullptr) {
        local_device = std::make_unique<ssdsim::SsdDevice>(ssd_config);
        device = local_device.get();
    }
    ssdsim::Ftl &ftl = device->ftl();

    // Staging window at the top of the logical space (the staged
    // redeploy's probe-page idiom).  Spill pages rotate through the
    // window; a rotation overwrite is exactly how a bounded staging
    // area behaves, and the FTL prices the resulting GC.  Record
    // payloads live in the host-side stand-in store (see header).
    const std::uint64_t window = std::max<std::uint64_t>(
        1,
        std::min<std::uint64_t>(1024, ftl.logicalPages() / 8));
    const auto spill_lpa = [&](std::uint64_t page_idx) {
        return ftl.logicalPages() - 1 - (page_idx % window);
    };
    const std::uint64_t page_bytes = ssd_config.pageBytes;
    const std::uint64_t records_per_page =
        std::max<std::uint64_t>(1, page_bytes / kRecordBytes);

    StreamingDeployResult result;
    result.hostBudgetBytes = config.hostBudgetBytes;
    result.rowsPlaced = rows;

    std::vector<std::vector<RunRecord>> run_store;
    std::vector<std::uint64_t> run_first_page;
    std::vector<RunRecord> run;
    run.reserve(run_capacity);

    sim::Tick spill_t = 0;
    const numeric::IsaLevel isa = numeric::activeIsa();

    const auto spill_run = [&]() {
        std::sort(run.begin(), run.end(), hotter);
        const std::uint64_t pages =
            (run.size() * kRecordBytes + page_bytes - 1)
            / page_bytes;
        run_first_page.push_back(result.spillPagesWritten);
        for (std::uint64_t p = 0; p < pages; ++p)
            spill_t = ftl.write(
                spill_lpa(result.spillPagesWritten + p), spill_t);
        result.spillPagesWritten += pages;
        ++result.runsSpilled;
        run_store.push_back(std::move(run));
        run = std::vector<RunRecord>();
        run.reserve(run_capacity);
    };

    // --- Run formation: quantize + score, spill full runs ---------
    for (std::uint64_t r = 0; r < rows; ++r) {
        source.materialize(r, row_scratch);
        projector.projectInto(row_scratch, projected);
        // Exactly Int4Matrix's per-row quantization, so the mass is
        // bit-identical to Screener::rowAbsMasses()[r].
        const float scale =
            numeric::maxAbsSpan(projected, isa)
            / static_cast<float>(numeric::int4Max);
        numeric::quantizePackSpan(projected, scale, packed.data(),
                                  isa);
        const double mass = static_cast<double>(packedAbsSum(
                                packed, shrunk_dim))
            * scale;
        run.push_back({mass, r});
        if (run.size() >= run_capacity && r + 1 < rows)
            spill_run();
    }

    sim::Tick merge_t = 0;
    if (run_store.empty()) {
        // Single run: everything fit the budget's run buffer — sort
        // in place and feed the builder directly, no spill IO.
        std::sort(run.begin(), run.end(), hotter);
        for (const RunRecord &record : run)
            builder.append(record.row, record.mass);
        run_charge.resize(0);
    } else {
        // The final (partial) run spills too: the merge reads every
        // run from the device, uniformly.
        if (!run.empty())
            spill_run();
        run_charge.resize(0);

        // --- K-way tournament merge over the spilled runs --------
        const std::size_t k = run_store.size();
        // Read-ahead accounting: one staging page of records per
        // run, plus the tournament heap.
        sim::BudgetCharge merge_charge(
            budget,
            k * (records_per_page * kRecordBytes
                 + sizeof(HeapEntry) + 3 * sizeof(std::uint64_t)));

        std::vector<std::uint64_t> cursor(k, 0);
        std::vector<std::uint64_t> block_left(k, 0);
        std::vector<std::uint64_t> pages_read(k, 0);
        std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                            HeapLess>
            heap;

        const auto refill = [&](std::uint32_t i) {
            // Crossing into a new staging page costs a timed read.
            if (block_left[i] == 0) {
                merge_t = ftl.read(
                    spill_lpa(run_first_page[i] + pages_read[i]),
                    merge_t);
                ++pages_read[i];
                ++result.spillPagesRead;
                block_left[i] = records_per_page;
            }
            const RunRecord &record = run_store[i][cursor[i]];
            heap.push({record.mass, record.row,
                       static_cast<std::uint32_t>(i)});
            ++cursor[i];
            --block_left[i];
        };

        for (std::uint32_t i = 0; i < k; ++i)
            refill(i);
        while (!heap.empty()) {
            const HeapEntry top = heap.top();
            heap.pop();
            builder.append(top.row, top.mass);
            if (cursor[top.run] < run_store[top.run].size())
                refill(top.run);
        }
    }

    // Release the staging window back to the logical space.
    const std::uint64_t staged_lpas =
        std::min<std::uint64_t>(window, result.spillPagesWritten);
    for (std::uint64_t i = 0; i < staged_lpas; ++i)
        ftl.trim(ftl.logicalPages() - 1 - i);

    result.layout = builder.finish();

    // --- Deploy wall-time ----------------------------------------
    // INT4 screener stream into DRAM, then the streamed FP32 deploy:
    // the host link feeds run formation while spills write; the
    // channel programs overlap the merge of the next run, so the
    // device-side critical path is spill + max(merge, program).
    const std::uint64_t int4_bytes = rows * packed_bytes;
    const sim::Tick int4_time = sim::transferTime(
        int4_bytes, std::min(ssd_config.hostLinkGbps,
                             ssd_config.dramBandwidthGbps));
    const sim::Tick link_time = sim::transferTime(
        rows * cols * sizeof(float), ssd_config.hostLinkGbps);
    const std::uint64_t row_bytes =
        config.rowBytes != 0 ? config.rowBytes : cols * 4ULL;
    const sim::Tick per_page =
        std::max(ssd_config.pageTransferTime(),
                 sim::microseconds(ssd_config.programLatencyUs
                                   / ssd_config.diesPerChannel));
    const std::uint64_t pages_per_channel =
        (rows * row_bytes / page_bytes + channels - 1) / channels;
    const sim::Tick program_time = pages_per_channel * per_page;
    result.deployTime = int4_time
        + std::max(link_time,
                   spill_t + std::max(merge_t, program_time));

    result.hostPeakBytes = budget.highWater();
    return result;
}

} // namespace ecssd
