/**
 * @file
 * Smoke-benchmark harness: fast, deterministic runs whose results are
 * the checked-in perf-regression baselines.
 *
 *   bench_smoke [--out DIR]
 *
 * Writes two flat JSON documents into DIR (default "."):
 *
 *  - BENCH_e2e.json: per-benchmark end-to-end latency/utilization at
 *    a reduced scale (Fig 13's sweep shrunk to smoke size), an
 *    InferenceServer serving pass, a hot-row cache pass (hit/miss
 *    latency split plus a trend-only hit-rate), a hot-swap pass
 *    (serving p99 through a staged redeploy, swap outcome counters),
 *    and an open-loop overload pass (100k bursty arrivals against
 *    the admission/brownout stack: tail percentiles, goodput, shed
 *    split, ladder dwell);
 *  - BENCH_breakdown.json: the Fig 8 stepwise technique breakdown on
 *    one benchmark.
 *
 * Every value is *simulated* time or a deterministic event count, so
 * the output is bit-stable across hosts and CI runs; tools/
 * bench_compare.cpp diffs a fresh run against the checked-in copy
 * (10% latency / 1% counter tolerance, see src/sim/baseline.hh).
 * "trend" entries are uploaded for plotting but never gated.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "accel/candidate_source.hh"
#include "ecssd/multi_tenant.hh"
#include "ecssd/server.hh"
#include "ecssd/streaming_deploy.hh"
#include "ecssd/system.hh"
#include "fig8_steps.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace ecssd;

namespace
{

/** Category cap of the end-to-end smoke runs. */
constexpr std::uint64_t kE2eScale = 16384;
/** Category cap of the serving smoke run (in-memory weights). */
constexpr std::uint64_t kServingScale = 2048;

/** One flat baseline document: "latency" / "counters" sections plus
 *  an optional trend-only "trend" section (see sim/baseline.hh). */
struct BaselineDoc
{
    std::map<std::string, double> latency;
    std::map<std::string, double> counters;
    std::map<std::string, double> trend;

    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            sim::fatal("cannot open '", path, "' for writing");
        sim::JsonWriter json(os);
        json.beginObject();
        json.key("latency");
        json.beginObject();
        for (const auto &[key, value] : latency) {
            json.key(key);
            json.value(value);
        }
        json.endObject();
        json.key("counters");
        json.beginObject();
        for (const auto &[key, value] : counters) {
            json.key(key);
            json.value(value);
        }
        json.endObject();
        if (!trend.empty()) {
            json.key("trend");
            json.beginObject();
            for (const auto &[key, value] : trend) {
                json.key(key);
                json.value(value);
            }
            json.endObject();
        }
        json.endObject();
        os << "\n";
        std::printf("wrote %s\n", path.c_str());
    }
};

void
benchEndToEnd(BaselineDoc &doc)
{
    for (const xclass::BenchmarkSpec &full :
         xclass::table3Benchmarks()) {
        const xclass::BenchmarkSpec spec =
            xclass::scaledDown(full, kE2eScale);
        EcssdSystem system(spec, EcssdOptions::full());
        const accel::RunResult result = system.runInference(2);

        const std::string name = full.name;
        doc.latency[name + ".mean_batch_ms"] = result.meanBatchMs();
        doc.latency[name + ".channel_utilization"] =
            result.channelUtilization;
        std::uint64_t candidate_rows = 0;
        std::uint64_t fp32_pages = 0;
        for (const accel::BatchTiming &batch : result.batches) {
            candidate_rows += batch.candidateRows;
            fp32_pages += batch.fp32PagesRead;
        }
        doc.counters[name + ".candidate_rows"] =
            static_cast<double>(candidate_rows);
        doc.counters[name + ".fp32_pages_read"] =
            static_cast<double>(fp32_pages);
    }
}

void
benchCache(BaselineDoc &doc)
{
    // The full design point plus an SSD-DRAM hot-row cache: the hit
    // and miss candidate-fetch times are deterministic simulated time
    // (gated), the hit-rate is a workload property (trend-only).
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), kE2eScale);
    EcssdOptions options = EcssdOptions::full();
    options.cache.capacityBytes = 8ULL << 20;
    EcssdSystem system(spec, options);
    const accel::RunResult result = system.runInference(2);

    sim::Tick hit_time = 0;
    sim::Tick miss_time = 0;
    std::uint64_t fp32_pages = 0;
    for (const accel::BatchTiming &batch : result.batches) {
        hit_time += batch.cacheHitTime;
        miss_time += batch.cacheMissTime;
        fp32_pages += batch.fp32PagesRead;
    }
    doc.latency["cache.hit_fetch_ms"] = sim::tickToMs(hit_time);
    doc.latency["cache.miss_fetch_ms"] = sim::tickToMs(miss_time);
    doc.counters["cache.hit_rows"] =
        static_cast<double>(result.cacheHitRows);
    doc.counters["cache.miss_rows"] =
        static_cast<double>(result.cacheMissRows);
    doc.counters["cache.fp32_pages_read"] =
        static_cast<double>(fp32_pages);
    doc.trend["cache.hit_rate"] = result.cacheHitRate();
}

void
benchServing(BaselineDoc &doc)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), kServingScale);
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model(spec, options.seed);
    InferenceServer server(model.weights(), spec, options);
    sim::Rng rng(options.seed);
    for (unsigned r = 0; r < 24; ++r)
        server.enqueue(model.sampleQuery(rng));
    server.processAll(5);

    doc.latency["serving.mean_ms"] = server.latencyMs().mean();
    doc.latency["serving.p50_ms"] =
        server.latencyPercentiles().p50();
    doc.latency["serving.p99_ms"] =
        server.latencyPercentiles().p99();
    doc.latency["serving.device_time_ms"] =
        sim::tickToMs(server.deviceTime());
    doc.counters["serving.ok_responses"] = static_cast<double>(
        server.serverStats().okResponses);
    doc.counters["serving.accepted_requests"] = static_cast<double>(
        server.serverStats().acceptedRequests);
}

void
benchRedeploy(BaselineDoc &doc)
{
    // Serving through a hot swap: half the load enqueues, a staged
    // redeploy to the same weights begins, and the rest serves
    // through the flip.  The swap must commit, shed nothing, and the
    // tail latency under the staging IO budget is gated — a budget
    // regression that stops yielding to foreground batches shows up
    // here as a p99 drift.
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), kServingScale);
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model(spec, options.seed);
    InferenceServer server(model.weights(), spec, options);
    sim::Rng rng(options.seed + 1);
    for (unsigned r = 0; r < 12; ++r)
        server.enqueue(model.sampleQuery(rng));
    if (server.beginRedeploy(model.weights(), spec) != Status::Ok)
        sim::fatal("smoke hot swap did not begin");
    for (unsigned r = 0; r < 12; ++r)
        server.enqueue(model.sampleQuery(rng));
    server.processAll(5);

    const RedeployStatus status = server.redeployStatus();
    doc.latency["redeploy.serving_p99_ms"] =
        server.latencyPercentiles().p99();
    doc.latency["redeploy.staging_ms"] =
        sim::tickToMs(status.stagingTime);
    doc.counters["redeploy.committed"] =
        status.phase == RedeployPhase::Committed ? 1.0 : 0.0;
    doc.counters["redeploy.rolled_back"] =
        status.phase == RedeployPhase::RolledBack ? 1.0 : 0.0;
    doc.counters["redeploy.staged_bytes"] =
        static_cast<double>(status.stagedBytes);
    doc.counters["redeploy.deploy_epoch"] =
        static_cast<double>(server.deployEpoch());
    doc.counters["redeploy.shed_requests"] = static_cast<double>(
        server.serverStats().shedRequests);
    doc.counters["redeploy.ok_responses"] = static_cast<double>(
        server.serverStats().okResponses);
}

void
benchOverload(BaselineDoc &doc)
{
    // Open-loop overload pass: a 100k-arrival bursty (MMPP-2) trace
    // at ~3x the device's service rate, served under the full
    // overload-control stack (queue-delay admission, class-aware
    // shedding, the batch-wait window, brownout ladder).  Every
    // number is simulated time or a deterministic event count, so the
    // tail percentiles, goodput, shed split, and ladder dwell are all
    // gated: an admission or ladder regression shows up as a p999
    // blowup or a shed-mix shift.  The spec is tiny (256 categories)
    // so the 100k-request functional pass stays inside the smoke
    // budget.
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 256);
    spec.hiddenDim = 64;
    spec.batchSize = 8;
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model(spec, options.seed);

    ServerConfig config;
    config.admissionTargetDelay = sim::microseconds(500.0);
    config.brownout.enterDelay = sim::microseconds(400.0);
    config.brownout.exitDelay = sim::microseconds(200.0);
    config.brownout.recoveryGuard = sim::microseconds(100.0);
    config.batchMaxWait = sim::microseconds(50.0);
    InferenceServer server(model.weights(), spec, options,
                           &model.basis(), config);

    std::vector<std::vector<float>> queries;
    sim::Rng qrng(options.seed);
    for (int q = 0; q < 32; ++q)
        queries.push_back(model.sampleQuery(qrng));

    sim::TrafficConfig traffic;
    traffic.process = sim::ArrivalProcess::BurstySpike;
    traffic.ratePerSecond = 60000.0;
    traffic.burstRateMultiplier = 6.0;
    traffic.goldFraction = 0.25;
    traffic.seed = 17;
    sim::TrafficEngine engine(traffic);
    const auto responses =
        server.runTraffic(engine, 100000, queries, 5);
    if (responses.size() != 100000)
        sim::fatal("overload smoke lost terminals");

    const ServerStats &stats = server.serverStats();
    doc.latency["overload.p99_ms"] =
        server.latencyPercentiles().p99();
    doc.latency["overload.p999_ms"] =
        server.latencyPercentiles().quantile(0.999);
    doc.latency["overload.device_time_ms"] =
        sim::tickToMs(server.deviceTime());
    doc.latency["overload.brownout_full_dwell_ms"] =
        sim::tickToMs(server.brownoutDwell(BrownoutLevel::Full));
    doc.latency["overload.brownout_degraded_dwell_ms"] =
        sim::tickToMs(
            server.brownoutDwell(BrownoutLevel::ReducedCandidates))
        + sim::tickToMs(
            server.brownoutDwell(BrownoutLevel::ScreenerOnly))
        + sim::tickToMs(server.brownoutDwell(BrownoutLevel::Shed));
    // Goodput: served (non-shed, non-dropped) answers per second of
    // simulated device time.
    doc.counters["overload.goodput_rps"] =
        static_cast<double>(stats.okResponses
                            + stats.degradedResponses)
        / sim::tickToSeconds(server.deviceTime());
    doc.counters["overload.shed_gold"] =
        static_cast<double>(stats.shedGold);
    doc.counters["overload.shed_best_effort"] =
        static_cast<double>(stats.shedBestEffort);
    doc.counters["overload.admission_sheds"] =
        static_cast<double>(stats.admissionSheds);
    doc.counters["overload.brownout_sheds"] =
        static_cast<double>(stats.brownoutSheds);
    doc.counters["overload.brownout_transitions"] =
        static_cast<double>(stats.brownoutTransitions);
    doc.counters["overload.served_full"] =
        static_cast<double>(stats.servedFull);
    doc.counters["overload.served_reduced_candidates"] =
        static_cast<double>(stats.servedReducedCandidates);
    doc.counters["overload.served_screener_only"] =
        static_cast<double>(stats.servedScreenerOnly);
    doc.counters["overload.queue_depth_hwm"] =
        static_cast<double>(stats.queueDepthHwm);
}

void
benchMultiTenant(BaselineDoc &doc)
{
    // Multi-tenant noisy-neighbor pass: tenant A serves a calm
    // stream under a p99 SLO while tenant B floods the shared
    // device far past capacity.  The gate is containment: B must
    // shed and brown out *its own* traffic, and A's p99 on the
    // shared device must stay within 15% of A's solo p99 — a
    // scheduler or quota regression that lets B's overload leak
    // into A's latency fails the smoke run outright.
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    spec.batchSize = 4;
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model_a(spec, options.seed);
    xclass::SyntheticModel model_b(spec, options.seed + 1);

    TenantConfig tenant_a;
    tenant_a.name = "a";
    tenant_a.dramBytes = 64ULL << 20;
    tenant_a.cacheQuotaBytes = 4ULL << 20;
    tenant_a.p99TargetMs = 5.0;
    TenantConfig tenant_b = tenant_a;
    tenant_b.name = "b";
    tenant_b.p99TargetMs = 1.0;

    std::vector<std::vector<float>> queries;
    sim::Rng qrng(options.seed);
    for (int q = 0; q < 16; ++q)
        queries.push_back(model_a.sampleQuery(qrng));

    sim::TrafficConfig calm;
    calm.ratePerSecond = 2000.0;
    calm.seed = 21;
    const std::uint64_t calm_count = 400;
    sim::TrafficConfig flood;
    flood.ratePerSecond = 500000.0;
    flood.seed = 22;

    // Solo baseline: A alone on the device.
    double solo_p99 = 0.0;
    {
        MultiTenantServer device(options);
        const TenantHandle a =
            device.addTenant(tenant_a, model_a.weights(), spec,
                             ServerConfig{}, &model_a.basis());
        device.run({{a, calm, calm_count}}, queries, 5);
        solo_p99 = device.server(a)->latencyPercentiles().p99();
    }

    // Shared device: the same A stream next to B's flood.
    MultiTenantServer device(options);
    const TenantHandle a =
        device.addTenant(tenant_a, model_a.weights(), spec,
                         ServerConfig{}, &model_a.basis());
    const TenantHandle b =
        device.addTenant(tenant_b, model_b.weights(), spec,
                         ServerConfig{}, &model_b.basis());
    device.run({{a, calm, calm_count}, {b, flood, 4000}}, queries,
               5);

    const ServerStats &stats_a = device.server(a)->serverStats();
    const ServerStats &stats_b = device.server(b)->serverStats();
    const double shared_p99 =
        device.server(a)->latencyPercentiles().p99();
    if (stats_b.shedRequests == 0
        || stats_b.brownoutTransitions == 0)
        sim::fatal("multi-tenant smoke: the flooded tenant never "
                   "degraded itself");
    if (stats_a.shedRequests != 0)
        sim::fatal("multi-tenant smoke: the calm tenant shed under "
                   "its neighbour's flood");
    if (shared_p99 > solo_p99 * 1.15)
        sim::fatal("multi-tenant smoke: noisy neighbour leaked into "
                   "the calm tenant's p99 (solo ", solo_p99,
                   " ms, shared ", shared_p99, " ms)");

    doc.latency["tenant.a_solo_p99_ms"] = solo_p99;
    doc.latency["tenant.a_shared_p99_ms"] = shared_p99;
    doc.latency["tenant.b_shared_p99_ms"] =
        device.server(b)->latencyPercentiles().p99();
    doc.latency["tenant.device_time_ms"] =
        sim::tickToMs(device.deviceTime());
    doc.counters["tenant.count"] =
        static_cast<double>(device.tenantCount());
    doc.counters["tenant.a_sheds"] =
        static_cast<double>(stats_a.shedRequests);
    doc.counters["tenant.b_sheds"] =
        static_cast<double>(stats_b.shedRequests);
    doc.counters["tenant.b_brownout_transitions"] =
        static_cast<double>(stats_b.brownoutTransitions);
    doc.counters["tenant.b_admission_sheds"] =
        static_cast<double>(stats_b.admissionSheds);
}

void
benchStreamingDeploy(BaselineDoc &doc)
{
    // Out-of-core streaming deploy at a scale whose hotness vector
    // would not fit the budget: 200k synthetic rows under a 2 MiB
    // transient-host ceiling, forcing external sorting through the
    // simulated flash.  Deploy time is simulated (gated as latency);
    // the peak and spill volume are deterministic accounting.
    const SyntheticRowSource source(200000, 32, 1);
    const ssdsim::SsdConfig ssd;
    StreamingDeployConfig config;
    config.hostBudgetBytes = 2ULL << 20;
    config.rowBytes = 32 * sizeof(float);
    const StreamingDeployResult result = streamingWeightDeploy(
        source, 16, ssd.channels, ssd, config);
    if (result.hostPeakBytes > config.hostBudgetBytes)
        sim::fatal("streaming deploy smoke exceeded its budget");
    if (result.runsSpilled < 2)
        sim::fatal("streaming deploy smoke did not spill");
    doc.latency["deploy.streaming_ms"] =
        sim::tickToMs(result.deployTime);
    doc.counters["deploy.host_peak_bytes"] =
        static_cast<double>(result.hostPeakBytes);
    doc.counters["deploy.runs_spilled"] =
        static_cast<double>(result.runsSpilled);
    doc.counters["deploy.spill_pages_written"] =
        static_cast<double>(result.spillPagesWritten);
    doc.counters["deploy.rows_placed"] =
        static_cast<double>(result.rowsPlaced);
}

/** Replays the same candidate rows every batch (drifted hot set). */
class FixedSource : public accel::CandidateSource
{
  public:
    FixedSource(std::uint64_t rows, std::vector<std::uint64_t> batch)
        : rows_(rows), batch_(std::move(batch))
    {
    }

    std::uint64_t rows() const override { return rows_; }
    std::vector<std::uint64_t> nextBatch() override
    {
        return batch_;
    }

  private:
    std::uint64_t rows_;
    std::vector<std::uint64_t> batch_;
};

void
benchRelayout(BaselineDoc &doc)
{
    // Induced hot-set drift followed by one background re-layout
    // pass.  Traffic concentrated on one channel's page groups
    // opens a channel-utilization gap; the migration pass must
    // recover at least 80% of it (the acceptance bar, enforced here
    // — a regression fails the bench run itself, not just the
    // baseline diff).
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    spec.hiddenDim = 64;
    EcssdOptions options = EcssdOptions::full();
    options.cache.capacityBytes = 8ULL << 20;
    options.relayout.enabled = true;
    options.relayout.divergenceThreshold = 0.2;
    options.relayout.pageBudget = 4096;
    EcssdSystem system(spec, options);

    const std::uint64_t rows_per_page = std::max<std::uint64_t>(
        1, options.ssd.pageBytes / spec.rowBytes());
    std::vector<std::uint64_t> batch;
    for (std::uint64_t g = 0;
         g < system.strategy().rows() && batch.size() < 32; ++g)
        if (system.strategy().channelOf(g) == 0)
            batch.push_back(g * rows_per_page);

    FixedSource drift(spec.categories, batch);
    const accel::RunResult drifted =
        system.runInferenceWith(drift, 4);
    const sim::Tick end = system.relayoutStep(drifted.totalTime);
    const RelayoutStats &stats = system.relayoutStats();

    const double before = 1.0 - stats.lastDivergence;
    const double recovered_gap =
        1.0 - before > 0.0
        ? (stats.recoveredBalance - before) / (1.0 - before)
        : 1.0;
    if (recovered_gap < 0.8)
        sim::fatal("re-layout smoke recovered only ",
                   recovered_gap * 100.0,
                   "% of the drifted balance gap");

    doc.latency["relayout.pass_ms"] =
        sim::tickToMs(end - drifted.totalTime);
    doc.counters["relayout.recovered_balance"] =
        stats.recoveredBalance;
    doc.counters["relayout.rows_migrated"] =
        static_cast<double>(stats.rowsMigrated);
    doc.counters["relayout.pages_moved"] =
        static_cast<double>(stats.pagesMoved);
    doc.trend["relayout.drift_divergence"] = stats.lastDivergence;
}

void
benchBreakdown(BaselineDoc &doc)
{
    // The Fig 8 ladder on one benchmark at smoke scale.
    const auto steps = bench::fig8Steps();
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), kE2eScale);
    for (std::size_t s = 0; s < 5; ++s) {
        EcssdSystem system(spec, steps[s]);
        const accel::RunResult result = system.runInference(2);
        char prefix[16];
        std::snprintf(prefix, sizeof(prefix), "step%zu", s);
        doc.latency[std::string(prefix) + ".mean_batch_ms"] =
            result.meanBatchMs();
        doc.latency[std::string(prefix) + ".channel_utilization"] =
            result.channelUtilization;
        std::uint64_t fp32_pages = 0;
        std::uint64_t int4_pages = 0;
        for (const accel::BatchTiming &batch : result.batches) {
            fp32_pages += batch.fp32PagesRead;
            int4_pages += batch.int4PagesRead;
        }
        doc.counters[std::string(prefix) + ".fp32_pages_read"] =
            static_cast<double>(fp32_pages);
        doc.counters[std::string(prefix) + ".int4_pages_read"] =
            static_cast<double>(int4_pages);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out DIR]\n", argv[0]);
            return 2;
        }
    }

    BaselineDoc e2e;
    benchEndToEnd(e2e);
    benchCache(e2e);
    benchServing(e2e);
    benchRedeploy(e2e);
    benchOverload(e2e);
    benchMultiTenant(e2e);
    benchStreamingDeploy(e2e);
    benchRelayout(e2e);
    e2e.write(out_dir + "/BENCH_e2e.json");

    BaselineDoc breakdown;
    benchBreakdown(breakdown);
    breakdown.write(out_dir + "/BENCH_breakdown.json");
    return 0;
}
