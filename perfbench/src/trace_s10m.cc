/**
 * @file
 * trace-s10m: XMLCNN-S10M at its full 10M categories in accelerator
 * mode, back-to-back 8-query batches from the statistical candidate
 * trace, on one host thread.  The paper's headline scale: layout,
 * channel balance and flash fetch are simulated in full.
 */

#include <memory>
#include <vector>

#include "bench.hh"
#include "device_tally.hh"
#include "ecssd/system.hh"
#include "xclass/workload.hh"

namespace perfbench
{

namespace
{

using namespace ecssd;

class TraceS10m : public Workload
{
  public:
    explicit TraceS10m(const RunConfig &config)
        : spec_(xclass::benchmarkByName("XMLCNN-S10M"))
    {
        if (config.scale == Scale::Small) {
            spec_ = xclass::scaledDown(spec_, 200000);
            batches_ = 3;
        }
        options_ = EcssdOptions::full();
        options_.seed = config.seed;
        options_.threads = config.threads;
    }

    void
    setup(SpanLog *spans) override
    {
        {
            Scope scope(spans, "ecssd.system_build");
            system_ = std::make_unique<EcssdSystem>(spec_, options_);
        }
        registry_ = std::make_unique<sim::MetricsRegistry>();
        system_->attachObservability(registry_.get(), nullptr);
        if (spans) {
            // The traced loop draws from its own copy of the trace the
            // system built its layout from (same spec, seed, noise).
            Scope scope(spans, "xclass.trace_build");
            source_ = std::make_unique<accel::TraceSource>(
                spec_, options_.seed, options_.predictorNoise);
        }
    }

    void
    runUntraced() override
    {
        timings_ = system_->runInference(batches_).batches;
    }

    void
    runTraced(SpanLog &spans) override
    {
        // EcssdSystem::runInference, call by call.
        timings_.clear();
        system_->ssd().resetTimelines();
        sim::Tick cursor = 0;
        for (unsigned b = 0; b < batches_; ++b) {
            Scope batch(&spans, "batch", b);
            std::vector<std::uint64_t> candidates;
            {
                Scope scope(&spans, "xclass.trace_draw", b);
                candidates = source_->nextBatch();
            }
            Scope scope(&spans, "accel.run_batch", b);
            timings_.push_back(
                system_->pipeline().runBatch(candidates, cursor));
            cursor = timings_.back().finishedAt;
        }
    }

    SimResult
    result() const override
    {
        SimResult out;
        const DeviceTally tally = deviceTally();
        std::vector<double> latencies;
        Digest digest;
        std::uint64_t failed = 0;
        for (const accel::BatchTiming &timing : timings_) {
            latencies.push_back(sim::tickToMs(timing.latency()));
            digest.add(timing.latency());
            digest.add(timing.candidateRows);
            digest.add(timing.fp32PagesRead);
            failed += timing.failed ? 1 : 0;
        }
        const auto batches = static_cast<double>(timings_.size());
        out.values["sim_latency_p50_ms"] = quantile(latencies, 0.5);
        out.values["sim_latency_p99_ms"] = quantile(latencies, 0.99);
        out.values["sim_throughput_qps"] = batches * spec_.batchSize
            / sim::tickToSeconds(tally.serviceTime());
        out.values["channel_utilization"] =
            tally.channelUtilization(*registry_, options_.ssd);
        out.values["served_fraction"] =
            (batches - static_cast<double>(failed)) / batches;
        out.values["failed_fraction"] =
            static_cast<double>(failed) / batches;
        tally.report(*registry_, out.values);
        for (const char *name :
             {"sim_latency_p50_ms", "sim_latency_p99_ms",
              "sim_throughput_qps", "channel_utilization"})
            out.samples[name] = timings_.size();
        out.digest = digest.value();
        out.attempted = timings_.size();
        out.failed = failed;
        return out;
    }

    void
    checkOutputs(Report &report) const override
    {
        const auto want = static_cast<std::uint64_t>(
            static_cast<double>(spec_.categories) * spec_.candidateRatio);
        bool rows_ok = timings_.size() == batches_;
        bool pages_ok = true;
        std::uint64_t fp32_pages = 0;
        for (const accel::BatchTiming &timing : timings_) {
            rows_ok = rows_ok && timing.candidateRows == want;
            std::uint64_t channel_sum = 0;
            for (const std::uint64_t pages : timing.channelPages)
                channel_sum += pages;
            pages_ok = pages_ok && channel_sum == timing.fp32PagesRead;
            fp32_pages += timing.fp32PagesRead;
        }
        report.check(rows_ok, "trace: every batch fetches "
                                  + std::to_string(want)
                                  + " candidate rows (10% of L)");
        report.check(pages_ok, "trace: per-channel pages sum to the "
                               "FP32 pages read, batch by batch");
        const DeviceTally tally = deviceTally();
        report.check(tally.channelPageSum() == fp32_pages,
                     "trace: flash channel page counters sum to the "
                     "pipeline's FP32 pages read");
        const double utilization =
            tally.channelUtilization(*registry_, options_.ssd);
        report.check(utilization > 0.0 && utilization <= 1.0,
                     "trace: channel utilization lies in (0, 1]");
    }

    void reportLayers(Report &) const override {}

    void
    teardown() override
    {
        source_.reset();
        system_.reset();
        registry_.reset();
        timings_.clear();
    }

  private:
    /** Device counters of the run: one reset window, back to back. */
    DeviceTally
    deviceTally() const
    {
        DeviceTally tally(options_.ssd.channels);
        tally.addWindow(system_->ssd(),
                        timings_.empty() ? 0
                                         : timings_.back().finishedAt
                                 - timings_.front().startedAt);
        return tally;
    }

    xclass::BenchmarkSpec spec_;
    EcssdOptions options_;
    unsigned batches_ = 4;
    std::unique_ptr<sim::MetricsRegistry> registry_;
    std::unique_ptr<EcssdSystem> system_;
    std::unique_ptr<accel::TraceSource> source_;
    std::vector<accel::BatchTiming> timings_;
};

} // namespace

std::unique_ptr<Workload>
makeTraceS10m(const RunConfig &config)
{
    return std::make_unique<TraceS10m>(config);
}

} // namespace perfbench
