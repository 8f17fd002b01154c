/**
 * @file
 * serve-gnmt4k: open-loop serving of a functional GNMT-E32K model
 * scaled to 4,096 categories (D = 1024, learned-basis projection)
 * through InferenceServer::runTraffic on one host thread: MMPP-2
 * bursty arrivals, Gold/BestEffort classes, queue-delay admission,
 * a brownout ladder, eager batching and an 8 MiB row cache.
 *
 * The traced run drives enqueueAt / alignDeviceClock / serveBatch
 * from the same arrival stream.  Each served quantum is then replayed
 * request by request, at the rung its response reports, through a
 * benchmark-owned classifier and system built with the same seed and
 * options: the replay's spans are the quantum's children, and must
 * reproduce its answers and its device latency exactly.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "bench.hh"
#include "device_tally.hh"
#include "ecssd/server.hh"
#include "sim/thread_pool.hh"
#include "sim/traffic.hh"
#include "xclass/metrics.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

namespace perfbench
{

namespace
{

using namespace ecssd;
using Response = InferenceServer::Response;

constexpr std::size_t kTopK = 5;

bool
served(const Response &response)
{
    return response.status == Status::Ok
        || response.status == Status::Degraded;
}

class ServeGnmt4k : public Workload
{
  public:
    explicit ServeGnmt4k(const RunConfig &config)
        : spec_(xclass::scaledDown(xclass::benchmarkByName("GNMT-E32K"),
                                   4096)),
          seed_(config.seed)
    {
        std::uint64_t cache_bytes = 8ULL << 20;
        if (config.scale == Scale::Small) {
            spec_ = xclass::scaledDown(spec_, 512);
            spec_.hiddenDim = 128;
            arrivals_ = 400;
            poolSize_ = 32;
            cache_bytes = 128ULL << 10;
        }
        options_ = EcssdOptions::full();
        options_.seed = seed_;
        // One host thread unless --threads says otherwise: with more, a
        // sim::ThreadPool worker woken for one parallelFor can claim a
        // chunk of the next one and run it with the finished call's
        // (dead) body, which crashes or corrupts results.
        options_.threads = config.threads;
        options_.cache.capacityBytes = cache_bytes;

        server_config_.admissionTargetDelay = sim::microseconds(2000.0);
        server_config_.brownout.enterDelay = sim::microseconds(1600.0);
        server_config_.brownout.exitDelay = sim::microseconds(800.0);
        server_config_.brownout.recoveryGuard = sim::microseconds(400.0);
        server_config_.batchMaxWait = 0;

        // MMPP-2 with short dwells: ~25 burst/calm cycles in one
        // repetition, so every seed sees a similar overload mix.
        traffic_.process = sim::ArrivalProcess::BurstySpike;
        traffic_.ratePerSecond = config.scale == Scale::Small ? 60000.0
                                                              : 2500.0;
        traffic_.burstRateMultiplier = 6.0;
        traffic_.meanBurstSeconds = 0.002;
        traffic_.meanCalmSeconds = 0.02;
        traffic_.goldFraction = 0.25;
        traffic_.seed = seed_;
    }

    void
    setup(SpanLog *spans) override
    {
        {
            Scope scope(spans, "xclass.model_synth");
            model_ = std::make_unique<xclass::SyntheticModel>(spec_, seed_);
        }
        // Query pool: the distinct features the Zipf sessions draw.
        sim::Rng rng(seed_ ^ 0x5e55105eULL);
        queries_.clear();
        for (std::size_t q = 0; q < poolSize_; ++q)
            queries_.push_back(model_->sampleQuery(rng));
        // The arrival stream is a pure function of its config: keep a
        // copy to map request ids (assigned in arrival order) back to
        // arrival ticks and queries.
        sim::TrafficEngine engine(traffic_);
        stream_ = engine.generate(arrivals_);
        {
            Scope scope(spans, "ecssd.server_build");
            server_ = std::make_unique<InferenceServer>(
                model_->weights(), spec_, options_, &model_->basis(),
                server_config_);
        }
        registry_ = std::make_unique<sim::MetricsRegistry>();
        server_->attachObservability(registry_.get(), nullptr);
    }

    void
    buildReferences() override
    {
        references_ = exactTopK(model_->weights(), queries_, kTopK);
    }

    void
    runUntraced() override
    {
        sim::TrafficEngine engine(traffic_);
        responses_ = server_->runTraffic(engine, arrivals_, queries_, kTopK);
        replayed_ = false;
    }

    void
    runTraced(SpanLog &spans) override
    {
        {
            // Benchmark-owned twins of the server's classifier and
            // device; their build time is kept out of the phase.
            ReplayScope replay(spans, spans.current());
            replayPool_ =
                std::make_unique<sim::ThreadPool>(options_.threads);
            replayClassifier_ =
                std::make_unique<xclass::ApproximateClassifier>(
                    model_->weights(), spec_, options_.seed,
                    &model_->basis(), replayPool_.get());
            replaySystem_ = std::make_unique<EcssdSystem>(spec_, options_);
            replayRegistry_ = std::make_unique<sim::MetricsRegistry>();
            replaySystem_->attachObservability(replayRegistry_.get(),
                                               nullptr);
            replayTally_ =
                std::make_unique<DeviceTally>(options_.ssd.channels);
        }
        replayed_ = true;
        replayFaithful_ = true;
        responses_.clear();

        // InferenceServer::runTraffic with batchMaxWait = 0, call by
        // call: admit what has arrived, serve one quantum, repeat.
        sim::TrafficEngine engine(traffic_);
        std::uint64_t drawn = 0;
        bool have_next = false;
        sim::Arrival next;
        const auto draw = [&]() {
            have_next = drawn < arrivals_;
            if (have_next) {
                next = engine.next();
                ++drawn;
            }
        };
        draw();
        std::uint64_t quantum = 0;
        while (have_next || server_->pending() != 0) {
            if (server_->pending() == 0 && have_next
                && next.at > server_->deviceTime())
                server_->alignDeviceClock(next.at);
            while (have_next && next.at <= server_->deviceTime()) {
                {
                    Scope scope(&spans, "ecssd.enqueue", drawn);
                    server_->enqueueAt(
                        queries_[next.querySeed % queries_.size()],
                        next.at, next.cls);
                }
                draw();
            }
            if (server_->pending() == 0)
                continue;
            const sim::Tick before = server_->deviceTime();
            std::vector<Response> out;
            int span = -1;
            {
                Scope scope(&spans, "ecssd.serve_batch", quantum);
                span = scope.index();
                out = server_->serveBatch(kTopK);
            }
            replayQuantum(spans, span, quantum, before, out);
            for (Response &response : out)
                responses_.push_back(std::move(response));
            ++quantum;
        }
        // Terminal responses produced after the last quantum.
        for (Response &response : server_->serveBatch(kTopK))
            responses_.push_back(std::move(response));
    }

    SimResult
    result() const override
    {
        SimResult out;
        const Analysis a = analyze();
        out.values["sim_latency_p50_ms"] = quantile(a.latencies, 0.5);
        out.values["sim_latency_p99_ms"] = quantile(a.latencies, 0.99);
        out.values["sim_throughput_qps"] =
            static_cast<double>(a.served) / sim::tickToSeconds(a.service);
        out.values["channel_utilization"] =
            static_cast<double>(
                registry_->counter("pipeline.fp32_bytes_read").value())
            / (options_.ssd.internalBandwidthGbps() * 1e9
               * sim::tickToSeconds(a.service));
        const auto attempted = static_cast<double>(arrivals_);
        out.values["served_fraction"] =
            static_cast<double>(a.served) / attempted;
        out.values["failed_fraction"] =
            (attempted - static_cast<double>(a.served)) / attempted;
        out.values["recall_at_5"] = a.recall;
        out.values["ecssd.queue_wait_p50_ms"] = quantile(a.waits, 0.5);
        out.values["ecssd.queue_wait_p99_ms"] = quantile(a.waits, 0.99);
        out.values["ecssd.batch_service_p50_ms"] =
            quantile(a.services, 0.5);
        out.values["ecssd.batch_size_mean"] =
            static_cast<double>(a.served)
            / static_cast<double>(a.services.size());
        const ServerStats &stats = server_->serverStats();
        out.values["ecssd.queue_depth_hwm"] =
            static_cast<double>(stats.queueDepthHwm);
        out.values["ecssd.admission_sheds"] =
            static_cast<double>(stats.admissionSheds);
        out.values["ecssd.brownout_sheds"] =
            static_cast<double>(stats.brownoutSheds);
        out.values["ecssd.shed_gold"] = static_cast<double>(stats.shedGold);
        out.values["ecssd.served_full"] =
            static_cast<double>(stats.servedFull);
        out.values["ecssd.served_reduced"] =
            static_cast<double>(stats.servedReducedCandidates);
        out.values["ecssd.served_screener_only"] =
            static_cast<double>(stats.servedScreenerOnly);
        out.values["xclass.candidates_per_query"] = a.screened == 0
            ? 0.0
            : static_cast<double>(a.candidates)
                / static_cast<double>(a.screened);
        out.values["xclass.candidate_share"] = a.candidates == 0
            ? 0.0
            : static_cast<double>(
                  registry_->counter("pipeline.candidate_rows").value())
                / static_cast<double>(a.candidates);
        // runTraffic ends by draining the ladder back to Full, one rung
        // (one transition) per recovery guard; the call-by-call loop
        // stops at its last response, so account it the same drain.
        const auto rungs =
            static_cast<sim::Tick>(server_->brownoutLevel());
        const sim::Tick guard = std::max<sim::Tick>(
            server_config_.brownout.recoveryGuard, 1);
        sim::Tick dwell = rungs * guard;
        for (const BrownoutLevel level :
             {BrownoutLevel::ReducedCandidates, BrownoutLevel::ScreenerOnly,
              BrownoutLevel::Shed})
            dwell += server_->brownoutDwell(level);
        out.values["ecssd.brownout_transitions"] =
            static_cast<double>(stats.brownoutTransitions + rungs);
        out.values["ecssd.degraded_dwell_ms"] = sim::tickToMs(dwell);

        for (const char *name :
             {"sim_latency_p50_ms", "sim_latency_p99_ms", "recall_at_5",
              "ecssd.queue_wait_p50_ms", "ecssd.queue_wait_p99_ms"})
            out.samples[name] = a.served;
        for (const char *name :
             {"sim_throughput_qps", "channel_utilization",
              "ecssd.batch_service_p50_ms", "ecssd.batch_size_mean"})
            out.samples[name] = a.services.size();
        Digest digest;
        digest.add(a.digest);
        for (const char *name :
             {"pipeline.batches", "pipeline.candidate_rows",
              "pipeline.fp32_pages_read", "pipeline.fp32_bytes_read",
              "cache.hit", "cache.miss", "cache.hit_ps", "cache.miss_ps"})
            digest.add(registry_->counter(name).value());
        out.digest = digest.value();
        out.attempted = arrivals_;
        out.failed = a.unanswered;
        return out;
    }

    void
    checkOutputs(Report &report) const override
    {
        std::vector<unsigned> terminals(arrivals_ + 1, 0);
        bool ids_ok = true;
        for (const Response &response : responses_) {
            if (response.id == 0 || response.id > arrivals_)
                ids_ok = false;
            else
                ++terminals[response.id];
        }
        for (std::uint64_t id = 1; id <= arrivals_; ++id)
            ids_ok = ids_ok && terminals[id] == 1;
        report.check(ids_ok && responses_.size() == arrivals_,
                     "serve: exactly one terminal response per arrival");
        const Analysis a = analyze();
        report.check(a.unanswered == 0,
                     "serve: every response is Ok, Degraded or Shed");
        report.check(a.recall >= 0.85,
                     "serve: recall@5 of answered queries >= 0.85 vs "
                     "exact top-5");
        report.check(a.fullRecall >= 0.95,
                     "serve: recall@5 of Full-rung answers >= 0.95 vs "
                     "exact top-5");
    }

    void
    reportLayers(Report &report) const override
    {
        if (!replayed_)
            return;
        // Device counters come from the replay twin; it must have
        // seen exactly the server's device traffic.
        std::map<std::string, double> device;
        replayTally_->report(*replayRegistry_, device);
        for (const auto &[name, value] : device)
            report.set(name, value);
        const auto same = [this](const char *name) {
            return replayRegistry_->counter(name).value()
                == registry_->counter(name).value();
        };
        report.check(replayFaithful_ && same("pipeline.batches")
                         && same("pipeline.candidate_rows")
                         && same("cache.hit") && same("cache.miss"),
                     "serve: the replay reproduces every quantum's "
                     "answers, device latency and cache traffic");
    }

    void
    teardown() override
    {
        replayTally_.reset();
        replaySystem_.reset();
        replayRegistry_.reset();
        replayClassifier_.reset();
        replayPool_.reset();
        server_.reset();
        registry_.reset();
        model_.reset();
        responses_.clear();
    }

  private:
    /** Simulated outcome of the served responses. */
    struct Analysis
    {
        std::vector<double> latencies;
        std::vector<double> waits;
        std::vector<double> services;
        sim::Tick service = 0;
        std::uint64_t served = 0;
        std::uint64_t unanswered = 0;
        std::uint64_t screened = 0;
        std::uint64_t candidates = 0;
        double recall = 0.0;
        double fullRecall = 0.0;
        std::uint64_t digest = 0;
    };

    const sim::Arrival &arrivalOf(const Response &response) const
    {
        return stream_[response.id - 1];
    }

    /**
     * Batches are the groups of served responses sharing a completion
     * tick; a batch starts when the device is free and its newest
     * member has arrived.
     */
    Analysis
    analyze() const
    {
        Analysis a;
        std::vector<const Response *> answered;
        std::vector<const Response *> by_id(arrivals_ + 1, nullptr);
        for (const Response &response : responses_) {
            if (response.id >= 1 && response.id <= arrivals_)
                by_id[response.id] = &response;
            if (served(response))
                answered.push_back(&response);
            else if (response.status != Status::Shed)
                ++a.unanswered;
        }
        std::sort(answered.begin(), answered.end(),
                  [](const Response *x, const Response *y) {
                      return x->completedAt != y->completedAt
                          ? x->completedAt < y->completedAt
                          : x->id < y->id;
                  });
        sim::Tick device_free = 0;
        double recall_sum = 0.0;
        double full_sum = 0.0;
        std::uint64_t full = 0;
        for (std::size_t i = 0; i < answered.size();) {
            std::size_t j = i;
            sim::Tick start = device_free;
            while (j < answered.size()
                   && answered[j]->completedAt == answered[i]->completedAt) {
                start = std::max(start, arrivalOf(*answered[j]).at);
                ++j;
            }
            const sim::Tick finished = answered[i]->completedAt;
            a.services.push_back(sim::tickToMs(finished - start));
            a.service += finished - start;
            for (std::size_t m = i; m < j; ++m) {
                const Response &response = *answered[m];
                const sim::Arrival &arrival = arrivalOf(response);
                a.latencies.push_back(sim::tickToMs(finished - arrival.at));
                a.waits.push_back(sim::tickToMs(start - arrival.at));
                const double recall = xclass::recall(
                    references_[arrival.querySeed % queries_.size()],
                    response.prediction.topCategories);
                recall_sum += recall;
                if (response.servedAt == BrownoutLevel::Full) {
                    full_sum += recall;
                    ++full;
                }
                if (response.servedAt != BrownoutLevel::ScreenerOnly) {
                    ++a.screened;
                    a.candidates += response.prediction.candidateCount;
                }
            }
            device_free = finished;
            i = j;
        }
        a.served = answered.size();
        a.recall = a.served == 0 ? 0.0
                                 : recall_sum / static_cast<double>(a.served);
        a.fullRecall =
            full == 0 ? 1.0 : full_sum / static_cast<double>(full);
        Digest digest;
        for (std::uint64_t id = 1; id <= arrivals_; ++id) {
            const Response *response = by_id[id];
            if (response == nullptr)
                continue;
            digest.add(id);
            digest.add(static_cast<std::uint64_t>(response->status));
            digest.add(response->completedAt);
            digest.add(static_cast<std::uint64_t>(response->servedAt));
            for (const std::uint64_t category :
                 response->prediction.topCategories)
                digest.add(category);
        }
        a.digest = digest.value();
        return a;
    }

    /** Replay one served quantum through the benchmark's twins. */
    void
    replayQuantum(SpanLog &spans, int parent, std::uint64_t quantum,
                  sim::Tick before, const std::vector<Response> &out)
    {
        ReplayScope replay(spans, parent);
        xclass::ApproximateClassifier &classifier = *replayClassifier_;
        const xclass::Screener &screener = classifier.screener();
        std::set<std::uint64_t> union_rows;
        sim::Tick start = before;
        std::vector<const Response *> batch;
        for (const Response &response : out) {
            if (!served(response))
                continue;
            batch.push_back(&response);
            const sim::Arrival &arrival = arrivalOf(response);
            start = std::max(start, arrival.at);
            const std::vector<float> &query =
                queries_[arrival.querySeed % queries_.size()];
            const auto screen = [&]() {
                Scope scope(&spans, "xclass.screen", response.id);
                return screener.screen(query, xclass::FilterMode::TopRatio);
            };
            const auto rerank = [&](const std::vector<std::uint64_t> &rows) {
                Scope scope(&spans, "xclass.rerank", response.id);
                return classifier.predictFrom(query, rows, kTopK);
            };
            xclass::ApproximateClassifier::Prediction prediction;
            switch (response.servedAt) {
            case BrownoutLevel::Full: {
                // predict() screens and re-ranks; the server then
                // screens again for the batch's union.
                prediction = rerank(screen());
                const std::vector<std::uint64_t> rows = screen();
                union_rows.insert(rows.begin(), rows.end());
                break;
            }
            case BrownoutLevel::ReducedCandidates: {
                std::vector<std::uint64_t> rows = screen();
                const std::size_t budget = std::max<std::size_t>(
                    1, static_cast<std::size_t>(
                           static_cast<double>(rows.size())
                           * server_config_.brownout
                                 .reducedCandidateFraction));
                if (rows.size() > budget) {
                    numeric::Int4Vector prepared;
                    {
                        Scope scope(&spans, "numeric.prepare", response.id);
                        prepared = screener.prepareFeature(query);
                    }
                    std::vector<double> scores;
                    {
                        Scope scope(&spans, "numeric.int4_score",
                                    response.id);
                        scores = screener.scores(prepared);
                    }
                    std::partial_sort(
                        rows.begin(), rows.begin() + budget, rows.end(),
                        [&scores](std::uint64_t x, std::uint64_t y) {
                            if (scores[x] != scores[y])
                                return scores[x] > scores[y];
                            return x < y;
                        });
                    rows.resize(budget);
                    std::sort(rows.begin(), rows.end());
                }
                prediction = rerank(rows);
                union_rows.insert(rows.begin(), rows.end());
                break;
            }
            default: {
                Scope scope(&spans, "xclass.screener_only", response.id);
                prediction = classifier.screenerOnly(query, kTopK);
                break;
            }
            }
            replayFaithful_ = replayFaithful_
                && prediction.topCategories
                    == response.prediction.topCategories
                && prediction.candidateCount
                    == response.prediction.candidateCount;
        }
        const std::vector<std::uint64_t> candidates(union_rows.begin(),
                                                    union_rows.end());
        replaySystem_->ssd().resetTimelines();
        accel::BatchTiming timing;
        {
            Scope scope(&spans, "accel.run_batch", quantum);
            timing = replaySystem_->pipeline().runBatch(candidates, 0);
        }
        replayTally_->addWindow(replaySystem_->ssd(), timing.latency());
        for (const Response *response : batch)
            replayFaithful_ = replayFaithful_
                && response->completedAt == start + timing.latency();
    }

    xclass::BenchmarkSpec spec_;
    std::uint64_t seed_;
    std::uint64_t arrivals_ = 2000;
    std::size_t poolSize_ = 256;
    EcssdOptions options_;
    ServerConfig server_config_;
    sim::TrafficConfig traffic_;

    std::unique_ptr<xclass::SyntheticModel> model_;
    std::vector<std::vector<float>> queries_;
    std::vector<sim::Arrival> stream_;
    std::vector<std::vector<std::uint64_t>> references_;
    std::unique_ptr<sim::MetricsRegistry> registry_;
    std::unique_ptr<InferenceServer> server_;
    std::vector<Response> responses_;

    bool replayed_ = false;
    bool replayFaithful_ = true;
    std::unique_ptr<sim::ThreadPool> replayPool_;
    std::unique_ptr<xclass::ApproximateClassifier> replayClassifier_;
    std::unique_ptr<EcssdSystem> replaySystem_;
    std::unique_ptr<sim::MetricsRegistry> replayRegistry_;
    std::unique_ptr<DeviceTally> replayTally_;
};

} // namespace

std::unique_ptr<Workload>
makeServeGnmt4k(const RunConfig &config)
{
    return std::make_unique<ServeGnmt4k>(config);
}

} // namespace perfbench
