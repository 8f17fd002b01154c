#include "system.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "numeric/kernels.hh"
#include "sim/logging.hh"

namespace ecssd
{

void
EcssdOptions::validate(const xclass::BenchmarkSpec *spec) const
{
    if (threads == 0)
        sim::fatal("EcssdOptions: threads must be >= 1");
    if (!std::isfinite(predictorNoise) || predictorNoise < 0.0
        || predictorNoise > 16.0)
        sim::fatal("EcssdOptions: predictorNoise must be in [0, 16], "
                   "got ",
                   predictorNoise);
    if (cache.associativity == 0)
        sim::fatal("EcssdOptions: cache associativity must be >= 1");
    if (relayout.enabled) {
        if (!std::isfinite(relayout.divergenceThreshold)
            || relayout.divergenceThreshold < 0.0
            || relayout.divergenceThreshold > 1.0)
            sim::fatal("EcssdOptions: relayout divergence threshold "
                       "must be in [0, 1], got ",
                       relayout.divergenceThreshold);
        if (relayout.pageBudget == 0)
            sim::fatal(
                "EcssdOptions: relayout pageBudget must be >= 1");
        if (!std::isfinite(relayout.ioBudgetFraction)
            || relayout.ioBudgetFraction <= 0.0
            || relayout.ioBudgetFraction > 1.0)
            sim::fatal("EcssdOptions: relayout IO-budget fraction "
                       "must be in (0, 1], got ",
                       relayout.ioBudgetFraction);
    }
    // Resolve the host-kernel level now, so a bad ECSSD_ISA dies
    // before any system is built.
    numeric::activeIsa();
    ssd.validate();
    if (spec != nullptr) {
        // DRAM residency: the INT4 screener claims its bytes first;
        // the hot-row cache may only take what is left.  (A screener
        // that alone exceeds DRAM is refused later, by
        // deployTimeEstimate() — Section 7.1's scale-out case.)
        const std::uint64_t screener_bytes =
            screenerDramBytes(*this, *spec);
        const std::uint64_t remaining =
            ssd.dramBytes > screener_bytes
            ? ssd.dramBytes - screener_bytes
            : 0;
        if (cache.capacityBytes > remaining)
            sim::fatal("EcssdOptions: hot-row cache (",
                       cache.capacityBytes,
                       " bytes) exceeds the SSD DRAM left after "
                       "screener residency (", remaining, " bytes)");
    }
}

std::string
describe(const EcssdOptions &options)
{
    std::ostringstream os;
    os << "fp=" << circuit::toString(options.fpKind)
       << " layout=" << layout::toString(options.layoutKind)
       << " int4="
       << (options.int4Placement == accel::Int4Placement::Dram
               ? "dram"
               : "flash")
       << " overlap=" << (options.overlapStages ? "on" : "off")
       << " screening=" << (options.screening ? "on" : "off");
    if (options.cache.enabled())
        os << " cache=" << (options.cache.capacityBytes >> 20)
           << "MiB/" << accel::toString(options.cache.admission);
    return os.str();
}

namespace
{

/** Validate @p options against @p spec before any member uses it. */
const EcssdOptions &
validated(const EcssdOptions &options,
          const xclass::BenchmarkSpec &spec)
{
    options.validate(&spec);
    return options;
}

} // namespace

EcssdSystem::EcssdSystem(const xclass::BenchmarkSpec &spec,
                         const EcssdOptions &options)
    : spec_(spec), options_(validated(options, spec)),
      threadPool_(
          std::make_unique<sim::ThreadPool>(options.threads)),
      ssd_(std::make_unique<ssdsim::SsdDevice>(options.ssd)),
      trace_(std::make_unique<accel::TraceSource>(
          spec, options.seed, options.predictorNoise))
{
    // Build the weight placement at page-group granularity (rows
    // narrower than a flash page share a page).  The learning-based
    // layout consumes the hot-degree predictions (here: the trace's
    // hotness oracle, standing in for INT4 row masses fine-tuned on
    // training data); a group is as hot as its hottest member.
    const std::uint64_t row_bytes =
        accel::storedRowBytes(spec, options.weightPrecision);
    const std::uint64_t rows_per_page = std::max<std::uint64_t>(
        1, options.ssd.pageBytes / row_bytes);
    const std::uint64_t groups =
        (spec.categories + rows_per_page - 1) / rows_per_page;
    const xclass::CandidateTrace &trace = trace_->trace();
    const std::uint64_t categories = spec.categories;
    strategy_ = layout::makeLayout(
        options.layoutKind, groups, options.ssd.channels,
        [&trace, rows_per_page,
         categories](std::uint64_t group) {
            double hottest = 0.0;
            const std::uint64_t first = group * rows_per_page;
            const std::uint64_t limit = std::min(
                first + rows_per_page, categories);
            for (std::uint64_t row = first; row < limit; ++row)
                hottest =
                    std::max(hottest, trace.hotness(row));
            return hottest;
        });
    // The background re-layout task mutates placement in place; only
    // the learning-adaptive strategy supports that, so the downcast
    // doubles as the feature gate.
    adaptive_ = dynamic_cast<layout::LearningAdaptiveLayout *>(
        strategy_.get());

    accel::AccelConfig accel_config;
    accel_config.fpKind = options.fpKind;
    accel_config.overlapStages = options.overlapStages;
    accel_config.weightPrecision = options.weightPrecision;
    accel_config.cache = options.cache;
    pipeline_ = std::make_unique<accel::InferencePipeline>(
        spec_, accel_config, *ssd_, *strategy_,
        options.int4Placement);
    pipeline_->setScreeningEnabled(options.screening);

    // Account for the DRAM capacity the accelerator mode claims: the
    // resident INT4 screener plus the hot-row cache.  The screener
    // reservation is clamped — a screener too big for DRAM is refused
    // by deployTimeEstimate(), not here (the DramCapacityGuard
    // contract) — and validate() guaranteed the cache fits whatever
    // the screener leaves.
    if (options.int4Placement == accel::Int4Placement::Dram)
        ssd_->dram().reserve(
            std::min(spec_.int4WeightBytes(),
                     ssd_->dram().availableBytes()));
    if (accel::RowCache *cache = pipeline_->rowCache()) {
        ssd_->dram().reserve(options.cache.capacityBytes);
        // Flash relocations (GC, re-layout migrations) may rewrite a
        // cached group's backing block; drop the stale DRAM copy.
        // The pipeline outlives every FTL call this system makes, so
        // the captured pointer stays valid.
        ssd_->ftl().setRelocationListener(
            [cache](const ssdsim::PhysicalPage &src) {
                cache->invalidatePhysical(src);
            });
    }
}

accel::RunResult
EcssdSystem::runInference(unsigned batches)
{
    return runInferenceWith(*trace_, batches);
}

accel::RunResult
EcssdSystem::runInferenceWith(accel::CandidateSource &source,
                              unsigned batches)
{
    ssd_->resetTimelines();
    if (!options_.screening) {
        accel::AllRowsSource all(spec_.categories);
        return pipeline_->run(all, batches);
    }
    return pipeline_->run(source, batches);
}

sim::Tick
EcssdSystem::relayoutStep(sim::Tick now)
{
    const RelayoutConfig &cfg = options_.relayout;
    const accel::RowCache *cache = pipeline_->rowCache();
    if (!cfg.enabled || adaptive_ == nullptr || cache == nullptr)
        return now;

    ++relayoutStats_.passes;

    // Deterministic snapshot of the decayed observed-frequency
    // counters: hash-map iteration order is unspecified, so sort by
    // group id before anything depends on the order.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> observed(
        cache->observedFrequencies().begin(),
        cache->observedFrequencies().end());
    std::sort(observed.begin(), observed.end());

    const unsigned channels = strategy_->channels();
    std::vector<double> mass(channels, 0.0);
    for (const auto &[group, count] : observed)
        mass[strategy_->channelOf(group)] +=
            static_cast<double>(count);

    const auto balance_of = [&]() {
        double total = 0.0;
        double peak = 0.0;
        for (double m : mass) {
            total += m;
            peak = std::max(peak, m);
        }
        if (peak <= 0.0)
            return 1.0;
        return total / channels / peak;
    };

    double balance = balance_of();
    relayoutStats_.lastDivergence = 1.0 - balance;
    if (relayoutStats_.lastDivergence <= cfg.divergenceThreshold) {
        relayoutStats_.recoveredBalance = balance;
        return now;
    }

    // The observed traffic has drifted from the hot-degree
    // prediction the placement was built on: re-home the hottest
    // groups of the most-loaded channel onto the least-loaded one,
    // page budget permitting.  Candidates hottest-first (frequency
    // descending, group ascending — build()'s tie order).
    ++relayoutStats_.migrationPasses;
    std::vector<std::size_t> order(observed.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&observed](std::size_t a, std::size_t b) {
                  if (observed[a].second != observed[b].second)
                      return observed[a].second > observed[b].second;
                  return observed[a].first < observed[b].first;
              });

    const unsigned pages_per_group = pipeline_->pagesPerGroup();
    ssdsim::Ftl &ftl = ssd_->ftl();
    std::vector<bool> moved(observed.size(), false);
    unsigned budget = cfg.pageBudget;
    sim::Tick busy_until = now;

    while (budget >= pages_per_group) {
        unsigned donor = 0;
        unsigned receiver = 0;
        for (unsigned c = 1; c < channels; ++c) {
            if (mass[c] > mass[donor])
                donor = c;
            if (mass[c] < mass[receiver])
                receiver = c;
        }
        const double gap = mass[donor] - mass[receiver];
        if (gap <= 0.0)
            break;

        // Hottest unmoved donor-resident group whose weight still
        // narrows the gap after the move (weight < gap).
        std::size_t pick = observed.size();
        for (std::size_t idx : order) {
            if (moved[idx])
                continue;
            const auto &[group, count] = observed[idx];
            if (count == 0
                || static_cast<double>(count) >= gap)
                continue;
            if (strategy_->channelOf(group) != donor)
                continue;
            pick = idx;
            break;
        }
        if (pick == observed.size())
            break;

        const auto &[group, count] = observed[pick];
        // Source pages under the *current* placement, then mutate,
        // then destination pages under the new one.  The FTL fires
        // the relocation listener on each source page, so the DRAM
        // row cache drops its now-stale copy.
        std::vector<ssdsim::PhysicalPage> srcs;
        srcs.reserve(pages_per_group);
        for (unsigned p = 0; p < pages_per_group; ++p)
            srcs.push_back(layout::pageOfRow(*strategy_,
                                             options_.ssd, group,
                                             p));
        adaptive_->relocateRow(group, receiver);
        for (unsigned p = 0; p < pages_per_group; ++p) {
            const ssdsim::PhysicalPage dst = layout::pageOfRow(
                *strategy_, options_.ssd, group, p);
            busy_until = ftl.migrateComputedPage(srcs[p], dst,
                                                 busy_until);
        }

        mass[donor] -= static_cast<double>(count);
        mass[receiver] += static_cast<double>(count);
        moved[pick] = true;
        budget -= pages_per_group;
        ++relayoutStats_.rowsMigrated;
        relayoutStats_.pagesMoved += pages_per_group;
    }

    balance = balance_of();
    relayoutStats_.recoveredBalance = balance;

    // IO-budget share: the flash time the pass consumed is spread
    // over 1/fraction of wall-time.
    const sim::Tick flash_busy = busy_until - now;
    return now
        + static_cast<sim::Tick>(
               static_cast<double>(flash_busy)
                   / cfg.ioBudgetFraction
               + 0.5);
}

void
EcssdSystem::publishRelayoutMetrics(
    sim::MetricsRegistry &registry) const
{
    // Gauges only once a pass ran: configs that never call (or never
    // enable) re-layout keep their metrics JSON byte-identical.
    if (relayoutStats_.passes == 0)
        return;
    registry.gaugeSet("relayout.passes",
                      static_cast<double>(relayoutStats_.passes));
    registry.gaugeSet(
        "relayout.migration_passes",
        static_cast<double>(relayoutStats_.migrationPasses));
    registry.gaugeSet(
        "relayout.rows_migrated",
        static_cast<double>(relayoutStats_.rowsMigrated));
    registry.gaugeSet(
        "relayout.pages_moved",
        static_cast<double>(relayoutStats_.pagesMoved));
    registry.gaugeSet("relayout.divergence",
                      relayoutStats_.lastDivergence);
    registry.gaugeSet("relayout.recovered_balance",
                      relayoutStats_.recoveredBalance);
}

void
EcssdSystem::attachObservability(sim::MetricsRegistry *metrics,
                                 sim::SpanTracer *spans)
{
    pipeline_->attachObservability(metrics, spans);
    ssd_->setSpanTracer(spans);
}

void
EcssdSystem::publishMetrics(sim::MetricsRegistry &registry,
                            const accel::RunResult &result) const
{
    ssd_->publishMetrics(registry);
    registry.gaugeSet("run.total_time_ms",
                      sim::tickToMs(result.totalTime));
    registry.gaugeSet("run.mean_batch_ms", result.meanBatchMs());
    registry.gaugeSet("run.channel_utilization",
                      result.channelUtilization);
    registry.gaugeSet("run.effective_gflops",
                      result.effectiveGflops);
    registry.gaugeSet("run.batches",
                      static_cast<double>(result.batches.size()));
    // Cache gauges exist only when the cache does, so a disabled
    // run's metrics JSON stays byte-identical to a cache-less build.
    if (const accel::RowCache *cache = pipeline_->rowCache()) {
        cache->publishMetrics(registry);
        registry.gaugeSet("run.cache_hit_rate",
                          result.cacheHitRate());
    }
    // Serving identity, only once a versioned layer stamped it —
    // unversioned runs keep their metrics JSON byte-identical.
    if (weightVersion_ != 0) {
        registry.gaugeSet("run.deploy_epoch",
                          static_cast<double>(deployEpoch_));
        registry.gaugeSet("run.weight_version",
                          static_cast<double>(weightVersion_));
    }
}

circuit::EnergyBreakdown
EcssdSystem::estimateRunEnergy(const accel::RunResult &result) const
{
    circuit::EnergyActivity activity;
    for (const accel::BatchTiming &batch : result.batches) {
        activity.flashPagesRead +=
            batch.fp32PagesRead + batch.int4PagesRead;
        activity.int4Ops += batch.int4Ops;
        activity.fp32Flops += batch.fp32Flops;
    }
    activity.dramBytes = ssd_->dram().bytesMoved();
    activity.hostBytes = ssd_->stats().hostBytesRaw;
    activity.elapsed = result.totalTime;

    circuit::AcceleratorConfig accel_config;
    accel_config.fpKind = options_.fpKind;
    circuit::EnergyParams params;
    params.pageBytes = options_.ssd.pageBytes;
    return circuit::estimateEnergy(
        activity, circuit::estimateAccelerator(accel_config),
        params);
}

sim::Tick
EcssdSystem::deployTimeEstimate() const
{
    return estimateDeployTime(spec_, options_.ssd);
}

std::uint64_t
screenerDramBytes(const EcssdOptions &options,
                  const xclass::BenchmarkSpec &spec)
{
    return options.int4Placement == accel::Int4Placement::Dram
        ? spec.int4WeightBytes()
        : 0;
}

sim::Tick
estimateDeployTime(const xclass::BenchmarkSpec &spec,
                   const ssdsim::SsdConfig &config)
{
    // 4-bit matrix: host link then DRAM write, pipelined; the slower
    // of the two links bounds the stream.
    const std::uint64_t int4_bytes = spec.int4WeightBytes();
    ECSSD_ASSERT(int4_bytes <= config.dramBytes,
                 "INT4 screener does not fit the SSD DRAM; "
                 "scale out (Section 7.1)");
    const double int4_gbps =
        std::min(config.hostLinkGbps, config.dramBandwidthGbps);
    const sim::Tick int4_time =
        sim::transferTime(int4_bytes, int4_gbps);

    // 32-bit matrix: programs stripe over every channel and die, so
    // the throughput per channel is pageBytes / max(bus, tPROG/dies).
    const std::uint64_t fp32_bytes = spec.fp32WeightBytes();
    const sim::Tick per_page_bus = config.pageTransferTime();
    const sim::Tick per_page_prog = sim::microseconds(
        config.programLatencyUs / config.diesPerChannel);
    const sim::Tick per_page = std::max(per_page_bus, per_page_prog);
    const std::uint64_t pages_per_channel =
        (fp32_bytes / config.pageBytes + config.channels - 1)
        / config.channels;
    const sim::Tick flash_time = pages_per_channel * per_page;
    const sim::Tick link_time =
        sim::transferTime(fp32_bytes, config.hostLinkGbps);

    return int4_time + std::max(flash_time, link_time);
}

} // namespace ecssd
