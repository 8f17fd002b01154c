/**
 * @file
 * Command-line experiment driver: run any benchmark/architecture
 * combination without writing code.
 *
 *   ecssd_sim --benchmark GNMT-E32K --layout learning --batches 4
 *   ecssd_sim --benchmark XMLCNN-S10M --arch GenStore-AP
 *   ecssd_sim --list
 *   ecssd_sim --benchmark LSTM-W33K --sweep-layouts --energy
 *
 * Exit status: 0 on success, 2 on a usage or configuration error
 * (the reason is on stderr).
 *
 * Options:
 *   --benchmark NAME      Table 3 benchmark (see --list)
 *   --scale N             cap the category count at N
 *   --batches N           inference batches to simulate (default 2)
 *   --layout KIND         sequential | uniform | learning
 *   --mac KIND            naive | skhynix | alignment-free
 *   --precision FMT       on-flash weight precision: cfp32 | cfp16
 *   --int4 PLACE          dram | flash
 *   --no-screening        dense classification (the -N mode)
 *   --no-overlap          disable stage overlap
 *   --arch NAME           simulate a baseline architecture instead
 *   --sweep-layouts       run all three layouts and compare
 *   --energy              print the energy breakdown
 *   --trace CATS          enable trace categories (ftl, pipeline or
 *                         all; an unknown name is refused)
 *   --seed N              trace/workload seed
 *   --threads N           host-compute worker threads (wall-clock
 *                         only: output is bit-identical for any N)
 *   --cache-mb N          SSD-DRAM hot-row candidate cache capacity
 *                         in MiB (0 = disabled, the default)
 *   --list                list benchmarks and architectures
 *
 * The ECSSD_ISA environment variable (auto | scalar | avx2 | avx512)
 * pins the host-compute SIMD level; like --threads it changes wall
 * clock only, and an unknown or unsupported level exits 2.
 *
 * Streaming deploy + background re-layout (MODELING.md Section 15):
 *   --deploy-host-budget-mb N  run an out-of-core streaming weight
 *                         deploy at benchmark scale before the
 *                         inference pass, with transient host bytes
 *                         hard-capped at N MiB (enforced by the
 *                         accounting allocator; 0 = off)
 *   --relayout            enable the background re-layout task: one
 *                         budgeted pass runs after the inference
 *                         batches (needs --cache-mb for the
 *                         observed-frequency feed)
 *   --relayout-threshold F  divergence (1 - observed balance) that
 *                         triggers migration (default 0.25)
 *   --relayout-pages N    migration page budget per pass (64)
 *   --relayout-io-budget F  device-time share of the migration task
 *                         (default 0.2)
 *
 * Reliability model (see docs/MODELING.md, "Wear lifecycle"):
 *   --uncorrectable-read-rate P   base per-read UECC probability
 *   --read-retry-rate P           per-read retry probability
 *   --erase-failure-rate P        per-erase block-retirement prob.
 *   --wear-coefficient C          erase-count error term weight
 *   --wear-exponent E             erase-count error term exponent
 *   --retention-coefficient C     per-second retention error term
 *   --health                      print the device SMART report
 *
 * Observability (see docs/MODELING.md Section 9):
 *   --metrics-json FILE   dump the metrics registry as JSON after the
 *                         run ("-" = stdout, which then carries the
 *                         dump alone: no report or summary lines)
 *   --metrics-prom FILE   Prometheus-style text dump of the registry
 *   --span-log FILE       dump the hierarchical span trace as JSON
 *   --serve-requests N    additionally run a serving pass of N
 *                         requests through the InferenceServer
 *                         (functional tier; needs --scale small
 *                         enough for in-memory weights)
 *
 * Weight hot swap (see docs/MODELING.md Section 12):
 *   --redeploy-at N       during the serving pass, begin a staged
 *                         hot swap to a fresh weight version after
 *                         the first N requests; the swap stages,
 *                         validates, and flips under the remaining
 *                         live traffic (requires --serve-requests)
 *   --redeploy-io-budget F  background staging IO budget as a
 *                         fraction of device bandwidth (default 0.25)
 *
 * Open-loop traffic + overload control (MODELING.md Section 13):
 *   --traffic KIND        drive the serving pass open-loop from a
 *                         deterministic TrafficEngine instead of the
 *                         closed-loop request list; KIND is poisson,
 *                         diurnal, or bursty (requires
 *                         --serve-requests N = arrival count)
 *   --traffic-rate R      base arrival rate, requests/second (1000)
 *   --traffic-burst-mult M  bursty-state rate multiple (8)
 *   --traffic-users N     distinct Zipf-skewed user sessions (1024)
 *   --traffic-gold-fraction F  fraction of users in the Gold class
 *   --traffic-seed N      arrival-process seed (default --seed)
 *   --admission-target-us U  CoDel-style queue-delay admission
 *                         target; estimated sojourn beyond U sheds
 *                         BestEffort arrivals (0 = off)
 *   --brownout-enter-us U    batch sojourn that degrades the ladder
 *                         one rung (0 = ladder off)
 *   --brownout-exit-us U     sojourn at or below this is healthy
 *   --brownout-guard-us U    healthy dwell before recovering a rung
 *   --brownout-reduced-fraction F  candidate budget at the
 *                         ReducedCandidates rung (default 0.5)
 *   --batch-max-wait-us U    dynamic batching: partial batches wait
 *                         up to U for more arrivals (0 = eager)
 *
 * Multi-tenant serving (MODELING.md Section 16):
 *   --tenant SPEC         admit one tenant for the serving pass;
 *                         repeatable.  SPEC is
 *                         name:dramMb:cacheMb[:p99ms] — the tenant's
 *                         SSD-DRAM partition and row-cache quota in
 *                         MiB, plus an optional serving p99 target
 *                         that derives its admission and brownout
 *                         thresholds.  With tenants the serving pass
 *                         runs every tenant's open-loop stream on
 *                         the shared device (--serve-requests N =
 *                         arrivals per tenant) and reports per
 *                         tenant; metrics land under
 *                         "tenant.<name>.*"
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "baselines/baselines.hh"
#include "ecssd/multi_tenant.hh"
#include "ecssd/server.hh"
#include "ecssd/streaming_deploy.hh"
#include "ecssd/system.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "sim/trace.hh"
#include "sim/traffic.hh"

using namespace ecssd;

namespace
{

struct CliOptions
{
    std::string benchmark = "GNMT-E32K";
    std::uint64_t scale = 0;
    unsigned batches = 2;
    std::string arch;
    bool sweepLayouts = false;
    bool energy = false;
    bool health = false;
    std::string metricsJson;
    std::string metricsProm;
    std::string spanLog;
    unsigned serveRequests = 0;
    unsigned redeployAt = 0;
    double redeployIoBudget = 0.25;
    std::string traffic;
    sim::TrafficConfig trafficConfig;
    bool trafficSeedSet = false;
    ServerConfig serverConfig;
    std::vector<TenantConfig> tenants;
    EcssdOptions device = EcssdOptions::full();

    bool
    observability() const
    {
        return !metricsJson.empty() || !metricsProm.empty()
            || !spanLog.empty();
    }

    /** True when the JSON dump goes to stdout, which then carries
     *  nothing else: every report and summary line is suppressed. */
    bool quiet() const { return metricsJson == "-"; }
};

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::printf("usage: %s [--benchmark NAME] [--scale N] "
                "[--batches N]\n"
                "  [--layout sequential|uniform|learning]\n"
                "  [--mac naive|skhynix|alignment-free]\n"
                "  [--precision cfp32|cfp16]\n"
                "  [--int4 dram|flash] [--no-screening] "
                "[--no-overlap]\n"
                "  [--arch NAME] [--sweep-layouts] [--energy]\n"
                "  [--trace CATS (ftl,pipeline,all; others refused)]"
                " [--seed N] [--threads N]\n"
                "  [--cache-mb N] [--list]\n"
                "  [--deploy-host-budget-mb N] [--relayout]\n"
                "  [--relayout-threshold F] [--relayout-pages N]\n"
                "  [--relayout-io-budget F]\n"
                "  [--uncorrectable-read-rate P] "
                "[--read-retry-rate P]\n"
                "  [--erase-failure-rate P] [--wear-coefficient C]\n"
                "  [--wear-exponent E] [--retention-coefficient C]\n"
                "  [--health]\n"
                "  [--metrics-json FILE] [--metrics-prom FILE]\n"
                "  [--span-log FILE] [--serve-requests N]\n"
                "  [--redeploy-at N] [--redeploy-io-budget F]\n"
                "  [--traffic poisson|diurnal|bursty] "
                "[--traffic-rate R]\n"
                "  [--traffic-burst-mult M] [--traffic-users N]\n"
                "  [--traffic-gold-fraction F] [--traffic-seed N]\n"
                "  [--admission-target-us U] [--brownout-enter-us U]\n"
                "  [--brownout-exit-us U] [--brownout-guard-us U]\n"
                "  [--brownout-reduced-fraction F]\n"
                "  [--batch-max-wait-us U]\n"
                "  [--tenant name:dramMb:cacheMb[:p99ms]]...\n",
                argv0);
    std::exit(code);
}

void
listTargets()
{
    std::printf("benchmarks:\n");
    for (const xclass::BenchmarkSpec &spec :
         xclass::table3Benchmarks())
        std::printf("  %-20s L=%-11llu D=%u\n", spec.name.c_str(),
                    (unsigned long long)spec.categories,
                    spec.hiddenDim);
    std::printf("architectures:\n  ECSSD\n");
    for (const baselines::Architecture arch :
         baselines::allBaselines())
        std::printf("  %s\n", baselines::toString(arch).c_str());
}

/**
 * @p text as a decimal count for @p flag, shifted left by @p shift bits
 * (20 turns MiB into bytes).  Fatal unless the whole text is a
 * non-negative number whose shifted value fits in T.
 */
template <typename T = std::uint64_t>
T
parseCount(const char *flag, const std::string &text, unsigned shift = 0)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text.find('-') != std::string::npos)
        sim::fatal(flag, " needs a non-negative whole number, got '", text,
                   "'");
    if (errno == ERANGE || value > (std::numeric_limits<T>::max() >> shift))
        sim::fatal(flag, " value '", text, "' is out of range");
    return static_cast<T>(value << shift);
}

/** @p text as a real number for @p flag; fatal unless the whole text
 *  is one, in range. */
double
parseReal(const char *flag, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0')
        sim::fatal(flag, " needs a number, got '", text, "'");
    if (errno == ERANGE)
        sim::fatal(flag, " value '", text, "' is out of range");
    return value;
}

layout::LayoutKind
parseLayout(const std::string &value)
{
    if (value == "sequential")
        return layout::LayoutKind::Sequential;
    if (value == "uniform")
        return layout::LayoutKind::Uniform;
    if (value == "learning")
        return layout::LayoutKind::LearningAdaptive;
    sim::fatal("unknown layout '", value, "'");
}

sim::ArrivalProcess
parseTrafficProcess(const std::string &value)
{
    if (value == "poisson")
        return sim::ArrivalProcess::Poisson;
    if (value == "diurnal")
        return sim::ArrivalProcess::Diurnal;
    if (value == "bursty")
        return sim::ArrivalProcess::BurstySpike;
    sim::fatal("unknown traffic process '", value,
               "' (poisson|diurnal|bursty)");
}

/** Parse one --tenant SPEC: name:dramMb:cacheMb[:p99ms]. */
TenantConfig
parseTenantSpec(const std::string &value)
{
    std::vector<std::string> fields;
    std::string::size_type start = 0;
    while (start <= value.size()) {
        const std::string::size_type colon = value.find(':', start);
        if (colon == std::string::npos) {
            fields.push_back(value.substr(start));
            break;
        }
        fields.push_back(value.substr(start, colon - start));
        start = colon + 1;
    }
    if (fields.size() < 3 || fields.size() > 4)
        sim::fatal("--tenant needs name:dramMb:cacheMb[:p99ms], "
                   "got '", value, "'");
    TenantConfig config;
    config.name = fields[0];
    config.dramBytes = parseCount("--tenant", fields[1], 20);
    config.cacheQuotaBytes = parseCount("--tenant", fields[2], 20);
    if (fields.size() == 4)
        config.p99TargetMs = parseReal("--tenant", fields[3]);
    config.validate();
    return config;
}

circuit::FpMacKind
parseMac(const std::string &value)
{
    if (value == "naive")
        return circuit::FpMacKind::Naive;
    if (value == "skhynix")
        return circuit::FpMacKind::SkHynix;
    if (value == "alignment-free")
        return circuit::FpMacKind::AlignmentFree;
    sim::fatal("unknown MAC kind '", value, "'");
}

accel::WeightPrecision
parsePrecision(const std::string &value)
{
    if (value == "cfp32")
        return accel::WeightPrecision::Cfp32;
    if (value == "cfp16")
        return accel::WeightPrecision::Cfp16;
    sim::fatal("unknown precision '", value, "' (cfp32|cfp16)");
}

accel::Int4Placement
parseInt4Placement(const std::string &value)
{
    if (value == "dram")
        return accel::Int4Placement::Dram;
    if (value == "flash")
        return accel::Int4Placement::Flash;
    sim::fatal("unknown INT4 placement '", value, "' (dram|flash)");
}

void
printHealth(const EcssdSystem &system, sim::Tick now)
{
    const ssdsim::HealthReport h = system.health(now);
    std::printf(
        "  health: life %.1f%%  erase min/mean/max %llu/%.1f/%llu  "
        "spare blocks %llu  bad %llu%s\n"
        "          media: %llu reads, %llu uncorrectable "
        "(observed %.2e, predicted %.2e)\n",
        h.lifeRemaining * 100.0,
        (unsigned long long)h.minEraseCount, h.meanEraseCount,
        (unsigned long long)h.maxEraseCount,
        (unsigned long long)h.spareBlocks,
        (unsigned long long)h.badBlocks,
        h.readOnly ? "  READ-ONLY" : "",
        (unsigned long long)h.mediaReads,
        (unsigned long long)h.mediaUncorrectable,
        h.observedErrorRate, h.predictedErrorRate);
    std::printf("          serving: deploy epoch %llu  "
                "weight version %llu\n",
                (unsigned long long)h.deployEpoch,
                (unsigned long long)h.weightVersion);
}

void
report(const xclass::BenchmarkSpec &spec, const EcssdOptions &options,
       unsigned batches, bool energy, bool health,
       sim::MetricsRegistry *metrics = nullptr,
       sim::SpanTracer *spans = nullptr, bool quiet = false)
{
    EcssdSystem system(spec, options);
    system.attachObservability(metrics, spans);

    // Out-of-core streaming deploy demo: build the learning-adaptive
    // placement at benchmark scale from a procedural row source,
    // host bytes hard-capped at the configured budget.
    StreamingDeployResult streamed;
    if (options.deployHostBudgetBytes > 0) {
        const SyntheticRowSource rows(spec.categories,
                                      spec.hiddenDim, options.seed);
        StreamingDeployConfig config;
        config.hostBudgetBytes = options.deployHostBudgetBytes;
        config.rowBytes = spec.rowBytes();
        config.seed = options.seed;
        streamed = streamingWeightDeploy(
            rows, spec.shrunkDim(), options.ssd.channels,
            options.ssd, config);
        if (metrics) {
            metrics->gaugeSet("deploy.streaming_ms",
                              sim::tickToMs(streamed.deployTime));
            metrics->gaugeSet(
                "deploy.host_peak_bytes",
                static_cast<double>(streamed.hostPeakBytes));
            metrics->gaugeSet(
                "deploy.host_budget_bytes",
                static_cast<double>(streamed.hostBudgetBytes));
            metrics->gaugeSet(
                "deploy.runs_spilled",
                static_cast<double>(streamed.runsSpilled));
        }
    }

    const accel::RunResult result = system.runInference(batches);

    // Background re-layout: one budgeted pass on the traffic the
    // batches just generated.
    if (options.relayout.enabled)
        system.relayoutStep(result.totalTime);

    if (metrics) {
        system.publishMetrics(*metrics, result);
        system.publishRelayoutMetrics(*metrics);
    }
    if (quiet)
        return;
    std::printf("%-20s %-55s %10.3f ms/batch  util %5.1f%%  "
                "%6.1f GFLOPS\n",
                spec.name.c_str(), describe(options).c_str(),
                result.meanBatchMs(),
                result.channelUtilization * 100.0,
                result.effectiveGflops);
    if (options.cache.enabled()) {
        std::printf("  cache: hit-rate %5.1f%%  (%llu hit / %llu "
                    "miss candidate rows)\n",
                    result.cacheHitRate() * 100.0,
                    (unsigned long long)result.cacheHitRows,
                    (unsigned long long)result.cacheMissRows);
    }
    if (options.deployHostBudgetBytes > 0) {
        std::printf(
            "  deploy: streaming %.3f ms  host peak %.2f MiB "
            "(budget %.2f MiB)  %llu runs spilled  "
            "%llu/%llu spill pages w/r\n",
            sim::tickToMs(streamed.deployTime),
            static_cast<double>(streamed.hostPeakBytes)
                / (1 << 20),
            static_cast<double>(streamed.hostBudgetBytes)
                / (1 << 20),
            (unsigned long long)streamed.runsSpilled,
            (unsigned long long)streamed.spillPagesWritten,
            (unsigned long long)streamed.spillPagesRead);
    }
    if (options.relayout.enabled) {
        const RelayoutStats &rs = system.relayoutStats();
        std::printf(
            "  relayout: divergence %.3f  migrated %llu groups "
            "(%llu pages)  balance %.3f\n",
            rs.lastDivergence,
            (unsigned long long)rs.rowsMigrated,
            (unsigned long long)rs.pagesMoved,
            rs.recoveredBalance);
    }
    if (energy) {
        const circuit::EnergyBreakdown e =
            system.estimateRunEnergy(result);
        std::printf(
            "  energy: total %.2f mJ  (flash %.1f%%, dram %.1f%%, "
            "link %.1f%%, accel %.1f%%, background %.1f%%)\n",
            e.totalUj() / 1000.0, e.flashUj / e.totalUj() * 100.0,
            e.dramUj / e.totalUj() * 100.0,
            e.hostLinkUj / e.totalUj() * 100.0,
            e.acceleratorUj / e.totalUj() * 100.0,
            e.backgroundUj / e.totalUj() * 100.0);
    }
    if (health)
        printHealth(system, result.totalTime);
}

/**
 * Open-loop traffic pass: drive the server from a deterministic
 * TrafficEngine under the full overload-control stack, then print
 * the goodput / shed / brownout summary.
 */
void
runTrafficPass(InferenceServer &server, const CliOptions &cli,
               const xclass::SyntheticModel &model)
{
    // A small deterministic query pool; each arrival's querySeed
    // picks one, so user sessions replay identical sequences.
    std::vector<std::vector<float>> queries;
    sim::Rng qrng(cli.device.seed);
    for (int q = 0; q < 32; ++q)
        queries.push_back(model.sampleQuery(qrng));

    sim::TrafficEngine engine(cli.trafficConfig);
    const auto responses =
        server.runTraffic(engine, cli.serveRequests, queries, 5);
    if (cli.quiet())
        return;

    const ServerStats &stats = server.serverStats();
    std::uint64_t served = 0;
    for (const auto &response : responses)
        if (response.status != InferenceServer::Response::Status::Shed)
            ++served;
    const double elapsed = sim::tickToSeconds(server.deviceTime());
    const double goodput =
        elapsed > 0.0 ? static_cast<double>(stats.okResponses
                                            + stats.degradedResponses)
                / elapsed
                      : 0.0;
    std::printf(
        "  traffic: %s  %.0f req/s offered  %llu arrivals  "
        "%llu served  %llu shed (gold %llu, best-effort %llu)\n"
        "  overload: goodput %.0f req/s  latency p50/p99 "
        "%.3f/%.3f ms  brownout transitions %llu\n"
        "  brownout dwell ms: full %.2f  reduced %.2f  screener "
        "%.2f  shed %.2f\n",
        sim::toString(cli.trafficConfig.process),
        cli.trafficConfig.ratePerSecond,
        (unsigned long long)responses.size(),
        (unsigned long long)served,
        (unsigned long long)stats.shedRequests,
        (unsigned long long)stats.shedGold,
        (unsigned long long)stats.shedBestEffort, goodput,
        server.latencyPercentiles().p50(),
        server.latencyPercentiles().p99(),
        (unsigned long long)stats.brownoutTransitions,
        sim::tickToMs(server.brownoutDwell(BrownoutLevel::Full)),
        sim::tickToMs(
            server.brownoutDwell(BrownoutLevel::ReducedCandidates)),
        sim::tickToMs(
            server.brownoutDwell(BrownoutLevel::ScreenerOnly)),
        sim::tickToMs(server.brownoutDwell(BrownoutLevel::Shed)));
}

/**
 * Functional-tier serving pass: synthesize in-memory weights, push
 * @p requests queries through an InferenceServer, and record the
 * "server.*" metrics.  Skipped (with a warning) when the weights
 * would not fit a reasonable host footprint — use --scale.
 */
void
runServingPass(const xclass::BenchmarkSpec &spec,
               const CliOptions &cli, sim::MetricsRegistry *metrics,
               sim::SpanTracer *spans)
{
    const EcssdOptions &options = cli.device;
    const unsigned requests = cli.serveRequests;
    const unsigned redeploy_at = cli.redeployAt;
    const double redeploy_io_budget = cli.redeployIoBudget;
    constexpr std::uint64_t kMaxWeightBytes = 256ULL << 20;
    if (spec.fp32WeightBytes() > kMaxWeightBytes) {
        sim::warn("--serve-requests skipped: ", spec.name,
                  " weights (", spec.fp32WeightBytes(),
                  " bytes) exceed the in-memory serving limit; "
                  "use --scale");
        return;
    }
    xclass::SyntheticModel model(spec, options.seed);
    // serverConfig defaults are all-off, so a plain closed-loop pass
    // is byte-identical to the pre-overload-control behaviour.
    InferenceServer server(model.weights(), spec, options, nullptr,
                           cli.serverConfig);
    server.attachObservability(metrics, spans);
    sim::Rng rng(options.seed);

    if (!cli.traffic.empty()) {
        // Open-loop mode: an optional hot swap is begun up front (a
        // short closed-loop warm-up fills the validation replay
        // ring), then the traffic stream steps it through staging.
        std::unique_ptr<xclass::SyntheticModel> next_model;
        if (redeploy_at > 0) {
            for (unsigned r = 0; r < std::min(redeploy_at, 16u); ++r)
                server.enqueue(model.sampleQuery(rng));
            server.processAll(5);
            next_model = std::make_unique<xclass::SyntheticModel>(
                spec, options.seed + 1);
            RedeployConfig config;
            config.ioBudgetFraction = redeploy_io_budget;
            config.minValidationRecall = 0.0;
            const Status begun = server.beginRedeploy(
                next_model->weights(), spec, config);
            if (begun != Status::Ok)
                sim::warn("--redeploy-at: beginRedeploy returned ",
                          toString(begun));
        }
        runTrafficPass(server, cli, model);
        if (redeploy_at > 0 && !cli.quiet()) {
            const RedeployStatus status = server.redeployStatus();
            std::printf("  redeploy: %s  staged %llu/%llu bytes  "
                        "version %llu\n",
                        toString(status.phase),
                        (unsigned long long)status.stagedBytes,
                        (unsigned long long)status.totalBytes,
                        (unsigned long long)server.weightVersion());
        }
        if (metrics)
            server.publishMetrics(*metrics);
        return;
    }

    // Optional hot swap: serve the first --redeploy-at requests on
    // the initial version, begin the staged swap to a fresh weight
    // version, then serve the rest while the swap stages, validates,
    // and flips underneath them.
    std::unique_ptr<xclass::SyntheticModel> next_model;
    const unsigned before =
        redeploy_at > 0 ? std::min(redeploy_at, requests) : requests;
    for (unsigned r = 0; r < before; ++r)
        server.enqueue(model.sampleQuery(rng));
    server.processAll(5);
    if (redeploy_at > 0) {
        next_model = std::make_unique<xclass::SyntheticModel>(
            spec, options.seed + 1);
        RedeployConfig config;
        config.ioBudgetFraction = redeploy_io_budget;
        // The swap target is a freshly-synthesized model, which
        // shares no screening structure with the serving one — a
        // recall gate would always roll the demo back.  Production
        // swaps (retrained weights) keep the default gate.
        config.minValidationRecall = 0.0;
        const Status begun = server.beginRedeploy(
            next_model->weights(), spec, config);
        if (begun != Status::Ok)
            sim::warn("--redeploy-at: beginRedeploy returned ",
                      toString(begun));
        for (unsigned r = before; r < requests; ++r)
            server.enqueue(model.sampleQuery(rng));
        server.processAll(5);
    }
    if (redeploy_at > 0 && !cli.quiet()) {
        const RedeployStatus status = server.redeployStatus();
        std::printf("  redeploy: %s%s%s  staged %llu/%llu bytes  "
                    "recall %.3f  epoch %llu -> %llu  version %llu\n",
                    toString(status.phase),
                    status.reason == RollbackReason::None ? ""
                                                          : "  ",
                    status.reason == RollbackReason::None
                        ? ""
                        : toString(status.reason),
                    (unsigned long long)status.stagedBytes,
                    (unsigned long long)status.totalBytes,
                    status.validationRecall,
                    (unsigned long long)status.oldEpoch,
                    (unsigned long long)server.deployEpoch(),
                    (unsigned long long)server.weightVersion());
    }
    if (metrics)
        server.publishMetrics(*metrics);
}

/**
 * Multi-tenant serving pass: one model and one open-loop stream per
 * --tenant, all lanes time-multiplexed on the shared device.  Each
 * tenant's metrics land under "tenant.<name>.*"; the report is one
 * line per tenant so noisy-neighbor containment is visible at a
 * glance.
 */
void
runMultiTenantPass(const xclass::BenchmarkSpec &spec,
                   const CliOptions &cli,
                   sim::MetricsRegistry *metrics,
                   sim::SpanTracer *spans)
{
    constexpr std::uint64_t kMaxWeightBytes = 256ULL << 20;
    if (spec.fp32WeightBytes() > kMaxWeightBytes) {
        sim::warn("--tenant serving skipped: ", spec.name,
                  " weights (", spec.fp32WeightBytes(),
                  " bytes) exceed the in-memory serving limit; "
                  "use --scale");
        return;
    }

    MultiTenantServer device(cli.device);
    device.attachObservability(metrics, spans);
    std::vector<std::unique_ptr<xclass::SyntheticModel>> models;
    std::vector<MultiTenantServer::TenantTraffic> mix;
    std::vector<std::vector<float>> queries;
    for (std::size_t t = 0; t < cli.tenants.size(); ++t) {
        models.push_back(std::make_unique<xclass::SyntheticModel>(
            spec, cli.device.seed + t));
        Status status = Status::Ok;
        const TenantHandle handle = device.addTenant(
            cli.tenants[t], models.back()->weights(), spec,
            cli.serverConfig, &models.back()->basis(), &status);
        if (status != Status::Ok)
            sim::fatal("--tenant ", cli.tenants[t].name,
                       " refused: ", toString(status));
        sim::TrafficConfig traffic = cli.trafficConfig;
        traffic.seed = cli.trafficConfig.seed + t;
        mix.push_back({handle, traffic, cli.serveRequests});
    }
    sim::Rng rng(cli.device.seed);
    for (int q = 0; q < 16; ++q)
        queries.push_back(models.front()->sampleQuery(rng));

    const auto outcomes = device.run(mix, queries, /*k=*/5);
    if (metrics)
        device.publishMetrics(*metrics);
    if (cli.quiet())
        return;
    std::printf("  multi-tenant serving: %zu tenants  %u arrivals "
                "each  shared device time %.3f ms\n",
                cli.tenants.size(), cli.serveRequests,
                sim::tickToMs(device.deviceTime()));
    for (std::size_t t = 0; t < outcomes.size(); ++t) {
        const InferenceServer &lane = *device.server(mix[t].tenant);
        const ServerStats &stats = lane.serverStats();
        char target[48] = "";
        if (cli.tenants[t].p99TargetMs > 0.0)
            std::snprintf(target, sizeof(target),
                          " (target %.1f ms)",
                          cli.tenants[t].p99TargetMs);
        std::printf("  tenant %-12s p50/p99 %7.3f/%7.3f ms%s  "
                    "shed %llu  brownout transitions %llu\n",
                    outcomes[t].name.c_str(),
                    lane.latencyPercentiles().p50(),
                    lane.latencyPercentiles().p99(), target,
                    (unsigned long long)stats.shedRequests,
                    (unsigned long long)stats.brownoutTransitions);
    }
}

/** Write @p write's output to @p path ("-" = stdout). */
template <typename WriteFn>
void
writeDump(const std::string &path, WriteFn &&write)
{
    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open '", path, "' for writing");
    write(os);
}

int
run(int argc, char **argv)
{
    CliOptions cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *name) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", name);
                usage(argv[0], 2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else if (arg == "--list") {
            listTargets();
            return 0;
        } else if (arg == "--benchmark") {
            cli.benchmark = next("--benchmark");
        } else if (arg == "--scale") {
            cli.scale = parseCount("--scale", next("--scale"));
        } else if (arg == "--batches") {
            cli.batches =
                parseCount<unsigned>("--batches", next("--batches"));
        } else if (arg == "--layout") {
            cli.device.layoutKind = parseLayout(next("--layout"));
        } else if (arg == "--mac") {
            cli.device.fpKind = parseMac(next("--mac"));
        } else if (arg == "--precision") {
            cli.device.weightPrecision =
                parsePrecision(next("--precision"));
        } else if (arg == "--int4") {
            cli.device.int4Placement =
                parseInt4Placement(next("--int4"));
        } else if (arg == "--no-screening") {
            cli.device.screening = false;
        } else if (arg == "--no-overlap") {
            cli.device.overlapStages = false;
        } else if (arg == "--arch") {
            cli.arch = next("--arch");
        } else if (arg == "--sweep-layouts") {
            cli.sweepLayouts = true;
        } else if (arg == "--energy") {
            cli.energy = true;
        } else if (arg == "--trace") {
            sim::enableTraceCategories(next("--trace"));
        } else if (arg == "--seed") {
            cli.device.seed = parseCount("--seed", next("--seed"));
        } else if (arg == "--threads") {
            cli.device.threads =
                parseCount<unsigned>("--threads", next("--threads"));
        } else if (arg == "--cache-mb") {
            cli.device.cache.capacityBytes =
                parseCount("--cache-mb", next("--cache-mb"), 20);
        } else if (arg == "--deploy-host-budget-mb") {
            cli.device.deployHostBudgetBytes =
                parseCount("--deploy-host-budget-mb",
                           next("--deploy-host-budget-mb"), 20);
        } else if (arg == "--relayout") {
            cli.device.relayout.enabled = true;
        } else if (arg == "--relayout-threshold") {
            cli.device.relayout.enabled = true;
            cli.device.relayout.divergenceThreshold = parseReal(
                "--relayout-threshold", next("--relayout-threshold"));
        } else if (arg == "--relayout-pages") {
            cli.device.relayout.enabled = true;
            cli.device.relayout.pageBudget = parseCount<unsigned>(
                "--relayout-pages", next("--relayout-pages"));
        } else if (arg == "--relayout-io-budget") {
            cli.device.relayout.enabled = true;
            cli.device.relayout.ioBudgetFraction = parseReal(
                "--relayout-io-budget", next("--relayout-io-budget"));
        } else if (arg == "--uncorrectable-read-rate") {
            cli.device.ssd.uncorrectableReadRate =
                parseReal("--uncorrectable-read-rate",
                          next("--uncorrectable-read-rate"));
        } else if (arg == "--read-retry-rate") {
            cli.device.ssd.readRetryRate =
                parseReal("--read-retry-rate", next("--read-retry-rate"));
        } else if (arg == "--erase-failure-rate") {
            cli.device.ssd.eraseFailureRate =
                parseReal("--erase-failure-rate",
                          next("--erase-failure-rate"));
        } else if (arg == "--wear-coefficient") {
            cli.device.ssd.wearErrorCoefficient =
                parseReal("--wear-coefficient", next("--wear-coefficient"));
        } else if (arg == "--wear-exponent") {
            cli.device.ssd.wearExponent =
                parseReal("--wear-exponent", next("--wear-exponent"));
        } else if (arg == "--retention-coefficient") {
            cli.device.ssd.retentionErrorCoefficient =
                parseReal("--retention-coefficient",
                          next("--retention-coefficient"));
        } else if (arg == "--health") {
            cli.health = true;
        } else if (arg == "--metrics-json") {
            cli.metricsJson = next("--metrics-json");
        } else if (arg == "--metrics-prom") {
            cli.metricsProm = next("--metrics-prom");
        } else if (arg == "--span-log") {
            cli.spanLog = next("--span-log");
        } else if (arg == "--serve-requests") {
            cli.serveRequests = parseCount<unsigned>(
                "--serve-requests", next("--serve-requests"));
        } else if (arg == "--redeploy-at") {
            cli.redeployAt = parseCount<unsigned>("--redeploy-at",
                                                  next("--redeploy-at"));
        } else if (arg == "--redeploy-io-budget") {
            cli.redeployIoBudget = parseReal(
                "--redeploy-io-budget", next("--redeploy-io-budget"));
        } else if (arg == "--traffic") {
            cli.traffic = next("--traffic");
            cli.trafficConfig.process =
                parseTrafficProcess(cli.traffic);
        } else if (arg == "--traffic-rate") {
            cli.trafficConfig.ratePerSecond =
                parseReal("--traffic-rate", next("--traffic-rate"));
        } else if (arg == "--traffic-burst-mult") {
            cli.trafficConfig.burstRateMultiplier = parseReal(
                "--traffic-burst-mult", next("--traffic-burst-mult"));
        } else if (arg == "--traffic-users") {
            cli.trafficConfig.users =
                parseCount("--traffic-users", next("--traffic-users"));
        } else if (arg == "--traffic-gold-fraction") {
            cli.trafficConfig.goldFraction =
                parseReal("--traffic-gold-fraction",
                          next("--traffic-gold-fraction"));
        } else if (arg == "--traffic-seed") {
            cli.trafficConfig.seed =
                parseCount("--traffic-seed", next("--traffic-seed"));
            cli.trafficSeedSet = true;
        } else if (arg == "--admission-target-us") {
            cli.serverConfig.admissionTargetDelay = sim::microseconds(
                parseReal("--admission-target-us",
                          next("--admission-target-us")));
        } else if (arg == "--brownout-enter-us") {
            cli.serverConfig.brownout.enterDelay = sim::microseconds(
                parseReal("--brownout-enter-us", next("--brownout-enter-us")));
        } else if (arg == "--brownout-exit-us") {
            cli.serverConfig.brownout.exitDelay = sim::microseconds(
                parseReal("--brownout-exit-us", next("--brownout-exit-us")));
        } else if (arg == "--brownout-guard-us") {
            cli.serverConfig.brownout.recoveryGuard = sim::microseconds(
                parseReal("--brownout-guard-us", next("--brownout-guard-us")));
        } else if (arg == "--brownout-reduced-fraction") {
            cli.serverConfig.brownout.reducedCandidateFraction =
                parseReal("--brownout-reduced-fraction",
                          next("--brownout-reduced-fraction"));
        } else if (arg == "--batch-max-wait-us") {
            cli.serverConfig.batchMaxWait = sim::microseconds(
                parseReal("--batch-max-wait-us", next("--batch-max-wait-us")));
        } else if (arg == "--tenant") {
            cli.tenants.push_back(parseTenantSpec(next("--tenant")));
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0], 2);
        }
    }
    sim::initTraceFromEnvironment();
    // Fail fast on contradictory device/reliability knobs, before
    // any benchmark state is built (the spec-dependent capacity
    // checks rerun inside EcssdSystem).
    cli.device.validate();
    cli.serverConfig.validate();
    if (cli.redeployAt > 0 && cli.serveRequests == 0)
        sim::fatal("--redeploy-at needs a serving pass; add "
                   "--serve-requests N");
    if (!cli.tenants.empty()) {
        if (cli.serveRequests == 0)
            sim::fatal("--tenant needs a serving pass; add "
                       "--serve-requests N (arrivals per tenant)");
        if (cli.redeployAt > 0)
            sim::fatal("--redeploy-at and --tenant are exclusive");
    }
    if (!cli.traffic.empty()) {
        if (cli.serveRequests == 0)
            sim::fatal("--traffic needs a serving pass; add "
                       "--serve-requests N (the arrival count)");
        if (!cli.trafficSeedSet)
            cli.trafficConfig.seed = cli.device.seed;
        cli.trafficConfig.validate();
    }

    xclass::BenchmarkSpec spec =
        xclass::benchmarkByName(cli.benchmark);
    if (cli.scale > 0)
        spec = xclass::scaledDown(spec, cli.scale);

    if (!cli.arch.empty()) {
        for (const baselines::Architecture arch :
             baselines::allBaselines()) {
            if (baselines::toString(arch) == cli.arch) {
                const baselines::BaselineResult result =
                    baselines::simulate(arch, spec, cli.batches,
                                        cli.device.seed);
                std::printf("%-20s %-15s %10.3f ms/batch "
                            "(%llu candidate rows)\n",
                            spec.name.c_str(), result.name.c_str(),
                            result.batchMs,
                            (unsigned long long)
                                result.candidateRows);
                return 0;
            }
        }
        if (cli.arch != "ECSSD")
            sim::fatal("unknown architecture '", cli.arch,
                       "'; try --list");
    }

    if (cli.sweepLayouts) {
        if (cli.observability())
            sim::fatal("--metrics-json/--metrics-prom/--span-log "
                       "need a single run, not --sweep-layouts");
        for (const layout::LayoutKind kind :
             {layout::LayoutKind::Sequential,
              layout::LayoutKind::Uniform,
              layout::LayoutKind::LearningAdaptive}) {
            EcssdOptions options = cli.device;
            options.layoutKind = kind;
            report(spec, options, cli.batches, cli.energy,
                   cli.health);
        }
        return 0;
    }

    if (cli.observability() || cli.serveRequests > 0) {
        sim::MetricsRegistry registry;
        sim::SpanTracer tracer;
        report(spec, cli.device, cli.batches, cli.energy,
               cli.health, &registry, &tracer, cli.quiet());
        if (!cli.tenants.empty())
            runMultiTenantPass(spec, cli, &registry, &tracer);
        else if (cli.serveRequests > 0)
            runServingPass(spec, cli, &registry, &tracer);
        if (!cli.metricsJson.empty())
            writeDump(cli.metricsJson, [&](std::ostream &os) {
                registry.writeJson(os);
            });
        if (!cli.metricsProm.empty())
            writeDump(cli.metricsProm, [&](std::ostream &os) {
                registry.writePrometheus(os);
            });
        if (!cli.spanLog.empty())
            writeDump(cli.spanLog, [&](std::ostream &os) {
                tracer.writeJson(os);
            });
        return 0;
    }

    report(spec, cli.device, cli.batches, cli.energy, cli.health);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const sim::FatalError &) {
        // A configuration error: fatal() already printed the reason.
        return 2;
    }
}
