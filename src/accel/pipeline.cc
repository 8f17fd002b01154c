#include "pipeline.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace ecssd
{
namespace accel
{

namespace
{

/** Compute demand in ticks for @p ops at @p giga_ops_per_s. */
sim::Tick
computeTicks(double ops, double giga_ops_per_s)
{
    return static_cast<sim::Tick>(
        ops / (giga_ops_per_s * 1e9) * sim::tickPerS + 0.5);
}

} // namespace

InferencePipeline::InferencePipeline(
    const xclass::BenchmarkSpec &spec, const AccelConfig &config,
    ssdsim::SsdDevice &ssd, const layout::LayoutStrategy &strategy,
    Int4Placement int4_placement)
    : spec_(spec), config_(config), ssd_(ssd), strategy_(strategy),
      int4Placement_(int4_placement)
{
    // The placement unit is one flash page: rows narrower than a
    // page share a page group, and the strategy is queried by group
    // id (a strategy built over raw rows still works, since the
    // group count never exceeds the row count).
    rowsPerPage_ = std::max<std::uint64_t>(
        1, ssd.config().pageBytes / weightRowBytes());
    ECSSD_ASSERT(strategy.rows() >= pageGroupCount(),
                 "layout does not cover the weight page groups");
    ECSSD_ASSERT(strategy.channels() == ssd.config().channels,
                 "layout/SSD channel count mismatch");

    // Tile size: as many rows as the INT4 staging buffer holds.
    const std::uint64_t bytes_per_row =
        std::max<std::uint64_t>(1, spec.shrunkDim() / 2);
    tileRows_ = std::max<std::uint64_t>(
        1, config.int4WeightBufferBytes / bytes_per_row);
    tileRows_ = std::min(tileRows_, spec.categories);

    pagesPerRow_ = static_cast<unsigned>(
        (weightRowBytes() + ssd.config().pageBytes - 1)
        / ssd.config().pageBytes);

    if (config_.cache.enabled()) {
        // Entry granularity is one page group's useful row bytes (the
        // fetch unit of the FP32 stage).  The admission priority is
        // seeded from the layout strategy's hot-degree predictor: the
        // same learned popularity signal that drives interleaving.
        const std::uint64_t group_bytes =
            rowsPerPage_ * weightRowBytes();
        const layout::LayoutStrategy *strategy_ptr = &strategy_;
        cache_ = std::make_unique<RowCache>(
            config_.cache, group_bytes, pageGroupCount(),
            [strategy_ptr](std::uint64_t group) {
                return strategy_ptr->hotDegreeOf(group);
            });
    }
}

std::uint64_t
InferencePipeline::tileCount() const
{
    return (spec_.categories + tileRows_ - 1) / tileRows_;
}

std::uint64_t
InferencePipeline::pageGroupCount() const
{
    return (spec_.categories + rowsPerPage_ - 1) / rowsPerPage_;
}

std::uint64_t
InferencePipeline::weightRowBytes() const
{
    return storedRowBytes(spec_, config_.weightPrecision);
}

std::size_t
InferencePipeline::pipelineDepth() const
{
    // Expected candidate bytes staged per tile; the -N architectures
    // fetch every row of the tile.
    const double ratio =
        screening_ ? spec_.candidateRatio : 1.0;
    const double tile_bytes = static_cast<double>(tileRows_) * ratio
        * static_cast<double>(pagesPerRow_)
        * ssd_.config().pageBytes;
    const double slots =
        static_cast<double>(ssd_.config().dataBufferBytes) / 2.0
        / std::max(tile_bytes, 1.0);
    return static_cast<std::size_t>(std::max(2.0, slots));
}

sim::Tick
InferencePipeline::fetchInt4Tile(std::uint64_t tile,
                                 sim::Tick issue_at,
                                 BatchTiming &timing)
{
    const std::uint64_t first = tile * tileRows_;
    const std::uint64_t rows =
        std::min<std::uint64_t>(tileRows_, spec_.categories - first);
    const std::uint64_t weight_bytes = rows * spec_.shrunkDim() / 2;
    // Index + physical-address metadata of the tile's FP32 rows
    // travels with the INT4 weights (Section 4.5); it always comes
    // from the DRAM-resident tables.
    const std::uint64_t meta_bytes = rows * 8;

    sim::Tick done = ssd_.dram().stream(meta_bytes, issue_at);

    if (int4Placement_ == Int4Placement::Dram) {
        done = std::max(done,
                        ssd_.dram().stream(weight_bytes, issue_at));
    } else {
        // Homogeneous layout: the INT4 tile lives in flash, striped
        // round-robin over channels; these reads contend with FP32
        // candidate reads on the same channel buses.
        const std::uint64_t pages =
            (weight_bytes + ssd_.config().pageBytes - 1)
            / ssd_.config().pageBytes;
        for (std::uint64_t p = 0; p < pages; ++p) {
            ssdsim::PhysicalPage ppa;
            const std::uint64_t seq =
                tile * pages + p; // global stripe cursor
            ppa.channel = static_cast<unsigned>(
                seq % ssd_.config().channels);
            ppa.die = static_cast<unsigned>(
                (seq / ssd_.config().channels)
                % ssd_.config().diesPerChannel);
            ppa.plane = 0;
            ppa.block = static_cast<unsigned>(
                (seq >> 8) % ssd_.config().blocksPerPlane);
            ppa.page = static_cast<unsigned>(
                seq % ssd_.config().pagesPerBlock);
            done = std::max(done,
                            ssd_.flash().readPage(ppa, issue_at));
            ++timing.int4PagesRead;
        }
    }
    return done;
}

// Inline: the fetch path calls it once per candidate page group.
inline InferencePipeline::GroupRead
InferencePipeline::readGroup(std::uint64_t group,
                             std::uint64_t bytes_wanted,
                             sim::Tick issue_at, sim::Tick transfer_gate,
                             std::vector<ssdsim::PhysicalPage> &group_pages)
{
    GroupRead read{std::max(issue_at, transfer_gate), 0};
    std::uint64_t bytes_left = bytes_wanted;
    group_pages.clear();
    for (unsigned p = 0; p < pagesPerRow_; ++p) {
        const ssdsim::PhysicalPage ppa =
            layout::pageOfRow(strategy_, ssd_.config(), group, p);
        const std::uint32_t chunk =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                bytes_left, ssd_.config().pageBytes));
        bool unreadable = false;
        read.done = std::max(
            read.done, ssd_.flash().readPage(ppa, issue_at, transfer_gate,
                                             chunk, &unreadable));
        read.unreadablePages += unreadable;
        bytes_left -= chunk;
        group_pages.push_back(ppa);
    }
    return read;
}

sim::Tick
InferencePipeline::fetchFp32Rows(
    std::span<const std::uint64_t> rows, sim::Tick issue_at,
    sim::Tick transfer_gate, BatchTiming &timing)
{
    if (rows.empty())
        return std::max(issue_at, transfer_gate);

    // Rows narrower than a page share pages; a page read covers
    // every candidate row packed into it, so dedupe by page group,
    // address the strategy at group granularity, and stream only
    // the wanted rows' bytes over the bus (partial-page transfer).
    sim::Tick done = issue_at;
    // The earliest tick any group's data can move.
    const sim::Tick start = std::max(issue_at, transfer_gate);
    // Reused by every group, so the walk allocates nothing per group
    // (a batch crosses up to one group per candidate row).
    std::vector<ssdsim::PhysicalPage> group_pages;
    std::size_t i = 0;
    while (i < rows.size()) {
        const std::uint64_t group = rows[i] / rowsPerPage_;
        std::uint32_t rows_wanted = 0;
        while (i < rows.size() && rows[i] / rowsPerPage_ == group) {
            ++rows_wanted;
            ++i;
        }
        const std::uint64_t bytes_wanted = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(rows_wanted)
                * weightRowBytes(),
            static_cast<std::uint64_t>(pagesPerRow_)
                * ssd_.config().pageBytes);

        // DRAM hot-row cache: a resident group serves its candidate
        // rows over the DRAM port (12.8 GB/s) with no flash traffic.
        // A hit on a group whose flash copy previously failed ECC
        // serves cleanly (avoided degradation, counted by the cache).
        if (cache_ && cache_->lookup(group, rows_wanted)) {
            const sim::Tick hit_done =
                ssd_.dram().stream(bytes_wanted, start);
            done = std::max(done, hit_done);
            timing.cacheHitRows += rows_wanted;
            timing.cacheHitTime += hit_done - start;
            continue;
        }

        const GroupRead read = readGroup(group, bytes_wanted, issue_at,
                                         transfer_gate, group_pages);
        done = std::max(done, read.done);
        timing.fp32PagesRead += group_pages.size();
        for (const ssdsim::PhysicalPage &ppa : group_pages)
            ++timing.channelPages[ppa.channel];
        // The rows packed in a lost page keep their INT4 screener
        // score; no extra device time.
        timing.uncorrectablePages += read.unreadablePages;
        if (read.unreadablePages > 0)
            timing.degradedRows += rows_wanted;
        timing.fp32BytesRead += bytes_wanted;
        if (cache_) {
            timing.cacheMissRows += rows_wanted;
            timing.cacheMissTime += read.done - start;
            // Admit only groups whose row data arrived intact: a
            // lost page leaves the group incomplete.  The admitted
            // fill occupies the DRAM port after the group's flash
            // transfer lands; it is off-critical-path (the consumer
            // already has the data in the staging buffer) but its
            // port time is modeled.
            if (read.unreadablePages > 0)
                cache_->markFlashLost(group);
            else if (cache_->admit(group, group_pages))
                ssd_.dram().stream(bytes_wanted, read.done);
        }
    }
    return done;
}

sim::Tick
InferencePipeline::warmRows(std::span<const std::uint64_t> rows,
                            sim::Tick issue_at)
{
    if (!cache_ || rows.empty())
        return issue_at;

    // Same page-group walk as fetchFp32Rows: dedupe by group, fetch
    // misses from the layout's flash placement, admit intact groups.
    sim::Tick done = issue_at;
    std::vector<ssdsim::PhysicalPage> group_pages;
    std::size_t i = 0;
    while (i < rows.size()) {
        const std::uint64_t group = rows[i] / rowsPerPage_;
        std::uint32_t rows_wanted = 0;
        while (i < rows.size() && rows[i] / rowsPerPage_ == group) {
            ++rows_wanted;
            ++i;
        }
        if (cache_->lookup(group, rows_wanted))
            continue; // already warm
        const std::uint64_t bytes_wanted = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(rows_wanted)
                * weightRowBytes(),
            static_cast<std::uint64_t>(pagesPerRow_)
                * ssd_.config().pageBytes);

        const GroupRead read =
            readGroup(group, bytes_wanted, issue_at, 0, group_pages);
        done = std::max(done, read.done);
        if (read.unreadablePages > 0) {
            cache_->markFlashLost(group);
            continue;
        }
        if (cache_->admit(group, group_pages)) {
            cache_->noteWarmInsertion();
            done = std::max(
                done, ssd_.dram().stream(bytes_wanted, read.done));
        }
    }
    return done;
}

BatchTiming
InferencePipeline::runBatch(
    std::span<const std::uint64_t> candidates, sim::Tick issue_at)
{
    BatchTiming timing;
    timing.startedAt = issue_at;
    timing.channelPages.assign(ssd_.config().channels, 0);

    const double int4_gops = config_.int4Gops();
    const double fp32_gflops = config_.fp32Gflops();
    const std::uint64_t batch = spec_.batchSize;

    const sim::SpanId batch_span =
        spans_ ? spans_->begin("pipeline.batch", issue_at) : 0;

    // Host uploads: projected INT4 features plus pre-aligned CFP32
    // features for the whole batch.
    const std::uint64_t int4_feature_bytes =
        batch * spec_.shrunkDim() / 2;
    const std::uint64_t cfp32_feature_bytes =
        batch * (spec_.rowBytes() + 1);
    const sim::Tick inputs_ready = ssd_.hostTransfer(
        int4_feature_bytes + cfp32_feature_bytes, issue_at);
    if (spans_) {
        spans_->end(
            spans_->begin("pipeline.host_upload", issue_at),
            inputs_ready);
    }

    const std::uint64_t tiles = tileCount();
    sim::Tick int4_done_prev = inputs_ready; // INT4 stage cursor
    sim::Tick fp32_done_prev = inputs_ready; // FP32 stage cursor
    // Candidate pages stream through the shared 4 MB data buffer, so
    // the fetch of tile t may run ahead only while the buffer can
    // hold the pages of tiles [t-depth, t].  This bounds run-ahead,
    // which is what makes per-window channel/die imbalance show up
    // as idle bandwidth exactly as it does in the real device.
    const std::size_t depth = pipelineDepth();
    std::vector<sim::Tick> done_ring(depth, inputs_ready);
    // The scheduler dispatches one tile's candidate address list to
    // the flash controllers at a time (tile-synchronous transfers);
    // sensing for the next tile prefetches underneath.
    sim::Tick fetch_done_prev = inputs_ready;

    std::size_t cand_cursor = 0;
    for (std::uint64_t tile = 0; tile < tiles; ++tile) {
        const std::uint64_t first = tile * tileRows_;
        const std::uint64_t limit =
            std::min(first + tileRows_, spec_.categories);
        const std::uint64_t rows = limit - first;

        // Slice this tile's candidates out of the sorted batch set.
        const std::size_t cand_begin = cand_cursor;
        while (cand_cursor < candidates.size()
               && candidates[cand_cursor] < limit)
            ++cand_cursor;
        const std::span<const std::uint64_t> tile_candidates =
            candidates.subspan(cand_begin,
                               cand_cursor - cand_begin);

        const sim::Tick buffer_free =
            done_ring[tile % depth]; // fp32_done[t - depth]

        // ---- INT4 screening stage -----------------------------------
        sim::Tick int4_done;
        if (screening_) {
            const sim::Tick stage_start =
                std::max(int4_done_prev, buffer_free);
            const sim::SpanId int4_span = spans_
                ? spans_->begin("pipeline.int4", stage_start)
                : 0;
            const sim::Tick fetch_done =
                fetchInt4Tile(tile, stage_start, timing);
            const double ops = static_cast<double>(batch) * rows
                * spec_.shrunkDim() * 2.0;
            timing.int4Ops += static_cast<std::uint64_t>(ops);
            const sim::Tick compute = computeTicks(ops, int4_gops);
            // Ping-pong staging overlaps fetch with compute; the
            // threshold comparator consumes scores at the MAC output
            // rate, adding no serial time.
            int4_done =
                std::max(fetch_done, stage_start + compute);
            timing.int4StageTime += int4_done - stage_start;
            if (spans_)
                spans_->end(int4_span, int4_done);
        } else {
            int4_done = int4_done_prev;
        }

        // ---- FP32 candidate-only stage ------------------------------
        timing.candidateRows += tile_candidates.size();
        const double flops = static_cast<double>(batch)
            * static_cast<double>(tile_candidates.size())
            * spec_.hiddenDim * 2.0;
        timing.fp32Flops += static_cast<std::uint64_t>(flops);
        const sim::Tick compute = computeTicks(flops, fp32_gflops);

        sim::Tick fp32_done;
        if (config_.overlapStages) {
            // Candidate addresses exist as soon as this tile's
            // filter output does, so the dies begin sensing then;
            // the bus transfers additionally wait for a free slot in
            // the staging buffer.  Compute waits for the FP32 unit
            // to drain the previous tile.
            const sim::Tick transfer_gate =
                std::max(buffer_free, fetch_done_prev);
            const sim::Tick fetch_start =
                std::max(int4_done, transfer_gate);
            const sim::SpanId fp32_span = spans_
                ? spans_->begin("pipeline.fp32", fetch_start)
                : 0;
            const sim::Tick fetch_done = fetchFp32Rows(
                tile_candidates, int4_done, transfer_gate, timing);
            fetch_done_prev = fetch_done;
            const sim::Tick compute_done =
                std::max(fp32_done_prev, fetch_start) + compute;
            fp32_done = std::max(fetch_done, compute_done);
            timing.fp32FetchTime += fetch_done - fetch_start;
            timing.fp32ComputeTime += compute;
            int4_done_prev = int4_done; // next INT4 may proceed
            if (spans_)
                spans_->end(fp32_span, fp32_done);
        } else {
            // Strictly serial: the next tile's INT4 stage waits for
            // this tile's FP32 stage to finish entirely.
            const sim::Tick fetch_start =
                std::max(int4_done, fp32_done_prev);
            const sim::SpanId fp32_span = spans_
                ? spans_->begin("pipeline.fp32", fetch_start)
                : 0;
            const sim::Tick fetch_done = fetchFp32Rows(
                tile_candidates, fetch_start, 0, timing);
            fp32_done = fetch_done + compute;
            timing.fp32FetchTime += fetch_done - fetch_start;
            timing.fp32ComputeTime += compute;
            int4_done_prev = fp32_done;
            if (spans_)
                spans_->end(fp32_span, fp32_done);
        }
        done_ring[tile % depth] = fp32_done;
        fp32_done_prev = fp32_done;
    }

    // Results return to the host (top candidates' scores).
    const std::uint64_t result_bytes = batch * 128 * 8;
    timing.finishedAt =
        ssd_.hostTransfer(result_bytes, fp32_done_prev);
    if (spans_) {
        spans_->end(
            spans_->begin("pipeline.host_download", fp32_done_prev),
            timing.finishedAt);
        spans_->end(batch_span, timing.finishedAt);
    }
    if (metrics_)
        recordBatchMetrics(timing);
    ECSSD_TRACE_LOG(sim::TraceCategory::Pipeline, timing.finishedAt,
                    "batch done: candidates ", timing.candidateRows,
                    " fp32 pages ", timing.fp32PagesRead,
                    " latency ", sim::tickToMs(timing.latency()),
                    " ms");
    return timing;
}

void
InferencePipeline::recordBatchMetrics(const BatchTiming &timing)
{
    sim::MetricsRegistry &m = *metrics_;
    m.counterAdd("pipeline.batches", 1);
    m.counterAdd("pipeline.candidate_rows", timing.candidateRows);
    m.counterAdd("pipeline.fp32_pages_read", timing.fp32PagesRead);
    m.counterAdd("pipeline.fp32_bytes_read", timing.fp32BytesRead);
    m.counterAdd("pipeline.int4_pages_read", timing.int4PagesRead);
    m.counterAdd("pipeline.fp32_flops", timing.fp32Flops);
    m.counterAdd("pipeline.int4_ops", timing.int4Ops);
    m.counterAdd("pipeline.uncorrectable_pages",
                 timing.uncorrectablePages);
    m.counterAdd("pipeline.degraded_rows", timing.degradedRows);
    if (cache_) {
        // Only cache-enabled runs emit cache.* keys: a disabled run's
        // metrics JSON stays byte-identical to a cache-less build.
        m.counterAdd("cache.hit", timing.cacheHitRows);
        m.counterAdd("cache.miss", timing.cacheMissRows);
        m.counterAdd("cache.hit_ps", timing.cacheHitTime);
        m.counterAdd("cache.miss_ps", timing.cacheMissTime);
    }
    // Per-phase time breakdown (Fig. 8's stage decomposition).
    m.counterAdd("pipeline.int4_stage_ps", timing.int4StageTime);
    m.counterAdd("pipeline.fp32_fetch_ps", timing.fp32FetchTime);
    m.counterAdd("pipeline.fp32_compute_ps",
                 timing.fp32ComputeTime);
    m.histogramSample("pipeline.batch_latency_ms", 0.0, 1000.0,
                      2000, sim::tickToMs(timing.latency()));
}

RunResult
InferencePipeline::run(CandidateSource &source, unsigned batches)
{
    ECSSD_ASSERT(source.rows() == spec_.categories,
                 "candidate source row-count mismatch");
    RunResult result;
    sim::Tick cursor = 0;
    const sim::Tick started = cursor;
    std::uint64_t flops = 0;
    std::uint64_t fp32_bytes = 0;
    for (unsigned b = 0; b < batches; ++b) {
        const std::vector<std::uint64_t> candidates =
            source.nextBatch();
        BatchTiming timing = runBatch(candidates, cursor);
        cursor = timing.finishedAt;
        flops += timing.fp32Flops;
        fp32_bytes += timing.fp32BytesRead;
        result.uncorrectablePages += timing.uncorrectablePages;
        result.degradedRows += timing.degradedRows;
        result.cacheHitRows += timing.cacheHitRows;
        result.cacheMissRows += timing.cacheMissRows;
        result.batches.push_back(std::move(timing));
    }
    result.totalTime = cursor - started;

    const double seconds = sim::tickToSeconds(result.totalTime);
    if (seconds > 0.0) {
        result.effectiveGflops =
            static_cast<double>(flops) / seconds / 1e9;
        // Channel-level bandwidth utilization for FP32 weight
        // transfer: bytes moved vs what the 8 buses could move.
        const double capacity =
            ssd_.config().internalBandwidthGbps() * 1e9 * seconds;
        result.channelUtilization =
            static_cast<double>(fp32_bytes) / capacity;
    }
    return result;
}

} // namespace accel
} // namespace ecssd
