/**
 * @file
 * The in-SSD inference pipeline (Section 4.5's workflow).
 *
 * Inference proceeds tile-by-tile over the L categories.  For each
 * tile the INT4 stage fetches the screener sub-matrix (from DRAM in
 * the heterogeneous layout, from flash in the homogeneous baseline),
 * scores it, and filters candidates; the FP32 stage then fetches the
 * candidate weight rows from the flash channels the layout strategy
 * placed them on and runs candidate-only classification.  With
 * overlap enabled the INT4 stage of tile t+1 runs while the FP32
 * stage of tile t is in flight, and ping-pong buffering overlaps
 * fetch with compute inside each stage.
 */

#ifndef ECSSD_ACCEL_PIPELINE_HH
#define ECSSD_ACCEL_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/accel_config.hh"
#include "accel/candidate_source.hh"
#include "accel/row_cache.hh"
#include "layout/strategy.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "ssdsim/ssd.hh"
#include "xclass/workload.hh"

namespace ecssd
{
namespace accel
{

/** Where the INT4 screener weights live (Section 4.3). */
enum class Int4Placement
{
    /** Heterogeneous: INT4 in DRAM, FP32 in flash (ECSSD). */
    Dram,
    /** Homogeneous: both INT4 and FP32 in flash (baseline). */
    Flash,
};

/** Timing outcome of one inference batch. */
struct BatchTiming
{
    sim::Tick startedAt = 0;
    sim::Tick finishedAt = 0;
    /** Candidate rows fetched for FP32 classification. */
    std::uint64_t candidateRows = 0;
    /** Flash pages read for FP32 weights. */
    std::uint64_t fp32PagesRead = 0;
    /** Bytes streamed over the channel buses for weight rows. */
    std::uint64_t fp32BytesRead = 0;
    /** Flash pages read for INT4 weights (homogeneous only). */
    std::uint64_t int4PagesRead = 0;
    /** FP32 floating-point operations executed. */
    std::uint64_t fp32Flops = 0;
    /** INT4 integer MAC operations executed. */
    std::uint64_t int4Ops = 0;
    /** Sum over tiles of the FP32 fetch critical path. */
    sim::Tick fp32FetchTime = 0;
    /** Sum over tiles of the FP32 compute demand. */
    sim::Tick fp32ComputeTime = 0;
    /** Sum over tiles of the INT4 stage time. */
    sim::Tick int4StageTime = 0;
    /** Per-channel pages read during this batch (FP32 weights). */
    std::vector<std::uint64_t> channelPages;
    /** FP32 candidate pages lost to uncorrectable ECC errors. */
    std::uint64_t uncorrectablePages = 0;
    /** Candidate rows served with the INT4 screener score because
     *  their FP32 page was lost. */
    std::uint64_t degradedRows = 0;
    /** Candidate rows served from the DRAM hot-row cache. */
    std::uint64_t cacheHitRows = 0;
    /** Candidate rows that missed the cache (or ran cache-less). */
    std::uint64_t cacheMissRows = 0;
    /** Sum of per-group DRAM service time for cache hits. */
    sim::Tick cacheHitTime = 0;
    /** Sum of per-group flash service time for cache misses. */
    sim::Tick cacheMissTime = 0;
    /** Always false: a lost page degrades its rows to the screener
     *  score and never aborts the batch.  Kept for callers that
     *  count failed batches. */
    bool failed = false;

    sim::Tick
    latency() const
    {
        return finishedAt - startedAt;
    }
};

/** Aggregated run outcome. */
struct RunResult
{
    std::vector<BatchTiming> batches;
    sim::Tick totalTime = 0;
    /** Channel-bus utilization over the whole run. */
    double channelUtilization = 0.0;
    /** Average effective FP32 GFLOPS across the run. */
    double effectiveGflops = 0.0;
    /** Sum of per-batch uncorrectable FP32 page losses. */
    std::uint64_t uncorrectablePages = 0;
    /** Sum of per-batch screener-degraded rows. */
    std::uint64_t degradedRows = 0;
    /** Sum of per-batch cache-hit candidate rows. */
    std::uint64_t cacheHitRows = 0;
    /** Sum of per-batch cache-miss candidate rows. */
    std::uint64_t cacheMissRows = 0;

    /** Row-level hit rate of the DRAM hot-row cache (0 when the
     *  cache is disabled or no candidates were fetched). */
    double
    cacheHitRate() const
    {
        const std::uint64_t total = cacheHitRows + cacheMissRows;
        return total == 0 ? 0.0
                          : static_cast<double>(cacheHitRows)
                / static_cast<double>(total);
    }

    /** Mean batch latency in milliseconds. */
    double
    meanBatchMs() const
    {
        if (batches.empty())
            return 0.0;
        double sum = 0.0;
        for (const BatchTiming &batch : batches)
            sum += sim::tickToMs(batch.latency());
        return sum / static_cast<double>(batches.size());
    }
};

/** The tile-by-tile dual-precision inference pipeline. */
class InferencePipeline
{
  public:
    /**
     * @param spec Workload shape.
     * @param config Accelerator parameters.
     * @param ssd The SSD whose flash/DRAM/host-link timelines the
     *        pipeline drives (must outlive the pipeline).
     * @param strategy FP32 row placement (must outlive the pipeline).
     * @param int4_placement Heterogeneous (DRAM) or homogeneous
     *        (flash) INT4 storage.
     */
    InferencePipeline(const xclass::BenchmarkSpec &spec,
                      const AccelConfig &config,
                      ssdsim::SsdDevice &ssd,
                      const layout::LayoutStrategy &strategy,
                      Int4Placement int4_placement);

    /** Rows per tile, sized to the INT4 weight staging buffer. */
    std::uint64_t tileRows() const { return tileRows_; }

    /**
     * Fetch run-ahead depth in tiles: how many tiles of candidate
     * pages the 4 MB data buffer can hold ahead of the FP32 consumer
     * (minimum 2, the ping-pong floor).
     */
    std::size_t pipelineDepth() const;

    /** Stored bytes of one weight row at the configured precision. */
    std::uint64_t weightRowBytes() const;

    /** Number of flash page groups holding the weight rows. */
    std::uint64_t pageGroupCount() const;

    /** Flash pages read per page group (>= 1): what a re-layout
     *  migration of one group must move. */
    unsigned pagesPerGroup() const { return pagesPerRow_; }

    /** Number of tiles per batch sweep. */
    std::uint64_t tileCount() const;

    /**
     * Run one inference batch whose candidates are @p candidates.
     *
     * @param candidates Sorted candidate rows over all L categories.
     * @param issue_at Batch start tick.
     */
    BatchTiming runBatch(std::span<const std::uint64_t> candidates,
                         sim::Tick issue_at);

    /**
     * Run @p batches batches from @p source back-to-back and
     * aggregate.
     */
    RunResult run(CandidateSource &source, unsigned batches);

    /** True when the FP32 stage (not screening) is in use at all. */
    bool
    screeningEnabled() const
    {
        return screening_;
    }

    /** Disable the INT4 screening stage (the -N architectures). */
    void setScreeningEnabled(bool enabled) { screening_ = enabled; }

    /** The DRAM hot-row cache, or nullptr when disabled. */
    RowCache *rowCache() { return cache_.get(); }
    const RowCache *rowCache() const { return cache_.get(); }

    /**
     * Warm the DRAM hot-row cache with @p rows (sorted candidate
     * rows, e.g. what the staged screener selected for a recorded
     * query during an online redeploy).  Misses are fetched from
     * flash and admitted exactly like demand fills — same layout
     * addressing, same admission policy, same DRAM fill transfer —
     * but counted as RowCacheStats::warmInsertions.  A group whose
     * flash read comes back uncorrectable is marked lost and not
     * admitted.  No-op without a cache.
     *
     * @return Completion tick of the last warm fill.
     */
    sim::Tick warmRows(std::span<const std::uint64_t> rows,
                       sim::Tick issue_at);

    /**
     * Attach (or detach, with nullptr) observability sinks.  When a
     * tracer is attached every batch emits the phase spans
     * pipeline.batch > {pipeline.host_upload, pipeline.int4,
     * pipeline.fp32, pipeline.host_download}; when a registry is
     * attached every batch records the "pipeline.*" counters and the
     * pipeline.batch_latency_ms histogram.  Recording is read-only
     * with respect to the timing model: an instrumented run returns
     * bit-identical BatchTiming to a bare one.
     */
    void
    attachObservability(sim::MetricsRegistry *metrics,
                        sim::SpanTracer *spans)
    {
        metrics_ = metrics;
        spans_ = spans;
    }

  private:
    /** Fetch one tile's INT4 weights; returns the completion tick. */
    sim::Tick fetchInt4Tile(std::uint64_t tile, sim::Tick issue_at,
                            BatchTiming &timing);

    /**
     * Fetch a tile's candidate FP32 rows.
     *
     * @param rows Sorted candidate rows of this tile.
     * @param issue_at When the addresses reach the flash controllers
     *        (dies begin sensing).
     * @param transfer_gate Earliest tick the bus transfers may start
     *        (staging-buffer availability); 0 for no gate.
     * @return Completion tick of the last transfer.
     */
    sim::Tick fetchFp32Rows(
        std::span<const std::uint64_t> rows, sim::Tick issue_at,
        sim::Tick transfer_gate, BatchTiming &timing);

    /** One page group's flash read. */
    struct GroupRead
    {
        /** Completion tick of the group's last page transfer (at
         *  least the issue tick and the transfer gate). */
        sim::Tick done;
        /** Pages that came back uncorrectable. */
        unsigned unreadablePages;
    };

    /**
     * Read page group @p group from the layout's flash placement,
     * streaming @p bytes_wanted of its pages over the bus (partial-page
     * transfer).  The demand fetch and the cache warm-up share it.
     *
     * @param transfer_gate As for fetchFp32Rows(); 0 for no gate.
     * @param group_pages Cleared, then filled with the pages read;
     *        reused across groups so the walk allocates nothing.
     */
    GroupRead readGroup(std::uint64_t group, std::uint64_t bytes_wanted,
                        sim::Tick issue_at, sim::Tick transfer_gate,
                        std::vector<ssdsim::PhysicalPage> &group_pages);

    /** Record one finished batch into the attached registry. */
    void recordBatchMetrics(const BatchTiming &timing);

    xclass::BenchmarkSpec spec_;
    AccelConfig config_;
    ssdsim::SsdDevice &ssd_;
    const layout::LayoutStrategy &strategy_;
    Int4Placement int4Placement_;
    bool screening_ = true;
    std::uint64_t tileRows_;
    unsigned pagesPerRow_;
    /** Weight rows sharing one flash page (>= 1). */
    std::uint64_t rowsPerPage_ = 1;
    /** DRAM hot-row candidate cache (null when capacityBytes = 0,
     *  which keeps the fetch path bit-identical to a cache-less
     *  build). */
    std::unique_ptr<RowCache> cache_;
    /** Optional observability sinks (null = uninstrumented). */
    sim::MetricsRegistry *metrics_ = nullptr;
    sim::SpanTracer *spans_ = nullptr;
};

} // namespace accel
} // namespace ecssd

#endif // ECSSD_ACCEL_PIPELINE_HH
