#include "server.hh"

#include <algorithm>
#include <set>

#include "sim/logging.hh"

namespace ecssd
{

const char *
toString(BrownoutLevel level)
{
    switch (level) {
    case BrownoutLevel::Full:
        return "full";
    case BrownoutLevel::ReducedCandidates:
        return "reduced-candidates";
    case BrownoutLevel::ScreenerOnly:
        return "screener-only";
    case BrownoutLevel::Shed:
        return "shed";
    }
    return "unknown";
}

void
BrownoutConfig::validate() const
{
    if (!enabled())
        return;
    if (exitDelay > enterDelay)
        sim::fatal("BrownoutConfig: exitDelay (", exitDelay,
                   ") must not exceed enterDelay (", enterDelay,
                   "); the hysteresis band would be negative");
    if (reducedCandidateFraction <= 0.0
        || reducedCandidateFraction > 1.0)
        sim::fatal("BrownoutConfig: reducedCandidateFraction must "
                   "be in (0, 1], got ",
                   reducedCandidateFraction);
}

void
ServerConfig::validate() const
{
    brownout.validate();
}

InferenceServer::InferenceServer(
    const numeric::FloatMatrix &weights,
    const xclass::BenchmarkSpec &spec, const EcssdOptions &options,
    const numeric::FloatMatrix *trained_projection,
    const ServerConfig &server_config)
    : options_(options), config_(server_config),
      threadPool_(
          std::make_unique<sim::ThreadPool>(options.threads)),
      live_(buildVersion(weights, spec, options_, trained_projection,
                         threadPool_.get()))
{
    ECSSD_ASSERT(weights.rows() == spec.categories
                     && weights.cols() == spec.hiddenDim,
                 "weights do not match the benchmark spec");
    config_.validate();
    live_.epoch = 1;
    live_.versionId = 1;
    live_.system->setDeployVersion(live_.epoch, live_.versionId);
}

void
InferenceServer::attachObservability(sim::MetricsRegistry *metrics,
                                     sim::SpanTracer *spans)
{
    metrics_ = metrics;
    spans_ = spans;
    live_.system->attachObservability(metrics, spans);
    redeploy_.attachObservability(spans);
}

void
InferenceServer::publishMetrics(sim::MetricsRegistry &registry) const
{
    const auto gauge = [&](const char *name, double value) {
        registry.gaugeSet(std::string("server.") + name, value);
    };
    const auto count = [&](const char *name, std::uint64_t value) {
        gauge(name, static_cast<double>(value));
    };
    count("accepted_requests", stats_.acceptedRequests);
    count("shed_requests", stats_.shedRequests);
    count("degraded_responses", stats_.degradedResponses);
    count("ok_responses", stats_.okResponses);
    count("degraded_rows", stats_.degradedRows);
    count("queue_depth_hwm", stats_.queueDepthHwm);
    count("shed_gold", stats_.shedGold);
    count("shed_best_effort", stats_.shedBestEffort);
    count("admission_sheds", stats_.admissionSheds);
    count("brownout_sheds", stats_.brownoutSheds);
    count("evicted_best_effort", stats_.evictedBestEffort);
    count("brownout_transitions", stats_.brownoutTransitions);
    count("served_full", stats_.servedFull);
    count("served_reduced_candidates", stats_.servedReducedCandidates);
    count("served_screener_only", stats_.servedScreenerOnly);
    gauge("brownout_level", static_cast<double>(level_));
    gauge("brownout_dwell_full_ms",
          sim::tickToMs(brownoutDwell(BrownoutLevel::Full)));
    gauge("brownout_dwell_reduced_ms",
          sim::tickToMs(brownoutDwell(BrownoutLevel::ReducedCandidates)));
    gauge("brownout_dwell_screener_ms",
          sim::tickToMs(brownoutDwell(BrownoutLevel::ScreenerOnly)));
    gauge("brownout_dwell_shed_ms",
          sim::tickToMs(brownoutDwell(BrownoutLevel::Shed)));
    // Exact nearest-rank quantiles of the served requests' latency.
    gauge("latency_p50_ms", latencyPercentiles_.quantile(0.50));
    gauge("latency_p95_ms", latencyPercentiles_.quantile(0.95));
    gauge("latency_p99_ms", latencyPercentiles_.quantile(0.99));
    gauge("latency_p999_ms", latencyPercentiles_.quantile(0.999));
    gauge("device_time_ms", sim::tickToMs(deviceClock_));
    count("deploy_epoch", live_.epoch);
    count("weight_version", live_.versionId);
    const RedeployStatus swap = redeploy_.status();
    gauge("redeploy_phase", static_cast<double>(swap.phase));
    count("redeploy_commits", redeploy_.commits());
    count("redeploy_rollbacks", redeploy_.rollbacks());
    count("redeploy_staged_bytes", swap.stagedBytes);
    gauge("redeploy_staging_ms", sim::tickToMs(swap.stagingTime));
    gauge("redeploy_validation_recall", swap.validationRecall);
}

InferenceServer::RequestId
InferenceServer::enqueue(std::vector<float> feature)
{
    return enqueueAt(std::move(feature), deviceClock_);
}

void
InferenceServer::shedRequest(RequestId id, sim::Tick arrival,
                             sim::RequestClass cls)
{
    ++stats_.shedRequests;
    if (cls == sim::RequestClass::Gold)
        ++stats_.shedGold;
    else
        ++stats_.shedBestEffort;
    Response response{id, {}, arrival, Response::Status::Shed};
    response.cls = cls;
    unservedResponses_.push_back(std::move(response));
}

bool
InferenceServer::evictYoungestBestEffort()
{
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
        if (it->cls != sim::RequestClass::BestEffort)
            continue;
        // The youngest BestEffort pays for the Gold arrival: it has
        // waited least and its loss never inverts FIFO fairness
        // within its own class.
        ++stats_.evictedBestEffort;
        shedRequest(it->id, it->enqueuedAt,
                    sim::RequestClass::BestEffort);
        --stats_.acceptedRequests;
        pending_.erase(std::next(it).base());
        return true;
    }
    return false;
}

InferenceServer::RequestId
InferenceServer::enqueueAt(std::vector<float> feature,
                           sim::Tick arrival, sim::RequestClass cls)
{
    ECSSD_ASSERT(feature.size() == live_.spec.hiddenDim,
                 "feature dimension mismatch");
    const RequestId id = nextId_++;

    // Brownout Shed rung: new BestEffort arrivals are rejected
    // outright while the ladder is at the bottom; Gold is still
    // admitted and served ScreenerOnly.
    if (config_.brownout.enabled() && level_ == BrownoutLevel::Shed
        && cls == sim::RequestClass::BestEffort) {
        ++stats_.brownoutSheds;
        shedRequest(id, arrival, cls);
        return id;
    }

    // Queue-delay admission (CoDel-flavored): bound the *sojourn* a
    // new arrival would suffer, not just the queue length.  The
    // estimate is queue depth times the measured per-request service
    // EWMA; Gold gets a deeper bound and may evict queued BestEffort
    // work instead of being rejected.
    if (config_.admissionTargetDelay != 0 && ewmaServiceTick_ != 0) {
        const sim::Tick estimated =
            static_cast<sim::Tick>(pending_.size())
            * ewmaServiceTick_;
        const sim::Tick bound = cls == sim::RequestClass::Gold
            ? static_cast<sim::Tick>(
                  static_cast<double>(config_.admissionTargetDelay)
                  * kGoldAdmissionMultiplier)
            : config_.admissionTargetDelay;
        if (estimated > bound) {
            if (cls == sim::RequestClass::Gold
                && evictYoungestBestEffort()) {
                // Fall through to admission: the queue just shrank.
            } else {
                ++stats_.admissionSheds;
                shedRequest(id, arrival, cls);
                return id;
            }
        }
    }
    ++stats_.acceptedRequests;
    pending_.push_back(
        PendingRequest{id, std::move(feature), arrival, cls});
    stats_.queueDepthHwm =
        std::max<std::uint64_t>(stats_.queueDepthHwm, pending_.size());
    return id;
}

BrownoutLevel
InferenceServer::servingLevel() const
{
    if (!config_.brownout.enabled())
        return BrownoutLevel::Full;
    // The Shed rung only rejects at admission; anything already in
    // the queue is served at the cheapest rung.  That keeps the
    // service rate at the bottom of the ladder at its maximum, which
    // is what makes recovery (and the no-metastable-shed guarantee)
    // structural rather than lucky.
    return level_ == BrownoutLevel::Shed ? BrownoutLevel::ScreenerOnly
                                         : level_;
}

std::vector<InferenceServer::Response>
InferenceServer::serveOneBatch(std::size_t k)
{
    ECSSD_ASSERT(!pending_.empty(), "serving an empty queue");
    std::vector<PendingRequest> batch;
    while (batch.size() < live_.spec.batchSize && !pending_.empty()) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
    }

    // Functional pass: screen every query at the batch's brownout
    // rung and union the candidate rows the device must fetch.
    // Degraded rungs shrink (ReducedCandidates) or empty
    // (ScreenerOnly) each request's contribution to the union — that
    // is exactly the flash-traffic relief the ladder buys.
    const xclass::ApproximateClassifier &classifier = *live_.classifier;
    const xclass::Screener &screener = classifier.screener();
    std::set<std::uint64_t> union_rows;
    std::vector<xclass::ApproximateClassifier::Prediction>
        predictions;
    const BrownoutLevel rung = servingLevel();
    for (const PendingRequest &request : batch) {
        switch (rung) {
        case BrownoutLevel::Full: {
            // One screen feeds both the re-rank and the batch union.
            const std::vector<std::uint64_t> rows =
                screenCandidates(screener, request.feature, kScreenMode);
            predictions.push_back(
                classifier.predictFrom(request.feature, rows, k));
            union_rows.insert(rows.begin(), rows.end());
            ++stats_.servedFull;
            break;
        }
        case BrownoutLevel::ReducedCandidates: {
            // Cap the usual candidate set to its top fraction by
            // screener score, then full-precision re-rank only the
            // survivors.
            std::vector<std::uint64_t> rows =
                screenCandidates(screener, request.feature, kScreenMode);
            const std::size_t budget = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       static_cast<double>(rows.size())
                       * config_.brownout.reducedCandidateFraction));
            if (rows.size() > budget) {
                const numeric::Int4Vector prepared =
                    screener.prepareFeature(request.feature);
                const std::vector<double> scores =
                    screener.scores(prepared);
                std::partial_sort(
                    rows.begin(), rows.begin() + budget, rows.end(),
                    [&scores](std::uint64_t a, std::uint64_t b) {
                        if (scores[a] != scores[b])
                            return scores[a] > scores[b];
                        return a < b;
                    });
                rows.resize(budget);
                std::sort(rows.begin(), rows.end());
            }
            predictions.push_back(
                classifier.predictFrom(request.feature, rows, k));
            union_rows.insert(rows.begin(), rows.end());
            ++stats_.servedReducedCandidates;
            break;
        }
        default: {
            // ScreenerOnly: top-k straight from the INT4 scores —
            // no FP32 rows fetched for this request at all.
            predictions.push_back(
                classifier.screenerOnly(request.feature, k));
            ++stats_.servedScreenerOnly;
            break;
        }
        }
        // Remember the feature: the next hot swap warms and
        // validates against the queries this server actually saw.
        redeploy_.recordQuery(request.feature);
    }

    // Timing pass: the device fetches the union once per batch; the
    // batch cannot start before its newest member arrived.
    sim::Tick start = deviceClock_;
    sim::Tick oldest_enqueue = sim::maxTick;
    for (const PendingRequest &request : batch) {
        start = std::max(start, request.enqueuedAt);
        oldest_enqueue = std::min(oldest_enqueue, request.enqueuedAt);
    }
    const std::vector<std::uint64_t> candidates(union_rows.begin(),
                                                union_rows.end());
    live_.system->ssd().resetTimelines();
    const accel::BatchTiming timing =
        live_.system->pipeline().runBatch(candidates, 0);
    const sim::Tick batch_tick = timing.latency();
    const sim::Tick finished = start + batch_tick;
    stats_.degradedRows += timing.degradedRows;

    // Service-time EWMA (3/4 old + 1/4 new): the admission sojourn
    // estimate.
    const sim::Tick per_request =
        batch_tick / static_cast<sim::Tick>(batch.size());
    ewmaServiceTick_ = ewmaServiceTick_ == 0
        ? per_request
        : (3 * ewmaServiceTick_ + per_request) / 4;

    std::vector<Response> responses;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const double ms =
            sim::tickToMs(finished - batch[i].enqueuedAt);
        latencyMs_.sample(ms);
        latencyPercentiles_.sample(ms);
        Response::Status status;
        if (timing.degradedRows > 0
            || rung == BrownoutLevel::ScreenerOnly) {
            // ScreenerOnly answers carry screener scores by
            // construction — same contract as a degraded read.
            status = Response::Status::Degraded;
            ++stats_.degradedResponses;
        } else {
            status = Response::Status::Ok;
            ++stats_.okResponses;
        }
        Response response{batch[i].id, std::move(predictions[i]),
                          finished, status};
        response.cls = batch[i].cls;
        response.servedAt = rung;
        responses.push_back(std::move(response));
    }
    deviceClock_ = finished;
    noteBatchSojourn(oldest_enqueue, finished);
    // The batch boundary is the swap's scheduling point: one staged
    // step here keeps the background IO yielding to the foreground
    // requests just served, and makes the flip atomic — no request
    // is in flight across it.
    stepRedeploy();
    return responses;
}

void
InferenceServer::setBrownoutLevel(BrownoutLevel level, sim::Tick now)
{
    if (level == level_)
        return;
    if (now > levelSince_)
        levelDwell_[static_cast<int>(level_)] += now - levelSince_;
    level_ = level;
    levelSince_ = now;
    ++stats_.brownoutTransitions;
}

void
InferenceServer::noteBatchSojourn(sim::Tick oldest_enqueue,
                                  sim::Tick finished)
{
    if (!config_.brownout.enabled())
        return;
    const sim::Tick sojourn = finished > oldest_enqueue
        ? finished - oldest_enqueue
        : 0;
    if (sojourn > config_.brownout.enterDelay) {
        // Overloaded: degrade one rung, and any healthy streak is
        // over.
        healthySince_ = sim::maxTick;
        if (level_ != BrownoutLevel::Shed)
            setBrownoutLevel(
                static_cast<BrownoutLevel>(
                    static_cast<int>(level_) + 1),
                finished);
    } else if (sojourn <= config_.brownout.exitDelay) {
        // Healthy: recover one rung only after the guard dwell, and
        // re-arm the guard per rung so a long backlog climbs out
        // gradually instead of snapping to Full.
        if (healthySince_ == sim::maxTick)
            healthySince_ = finished;
        if (level_ != BrownoutLevel::Full
            && finished - healthySince_
                >= config_.brownout.recoveryGuard) {
            setBrownoutLevel(
                static_cast<BrownoutLevel>(
                    static_cast<int>(level_) - 1),
                finished);
            healthySince_ = finished;
        }
    } else {
        // Hysteresis band: hold the rung, break the healthy streak.
        healthySince_ = sim::maxTick;
    }
}

void
InferenceServer::idleRecoverStep()
{
    if (!config_.brownout.enabled()
        || level_ == BrownoutLevel::Full)
        return;
    // An empty queue with no arrivals is trivially healthy: dwell
    // out the recovery guard and climb one rung.  Looping this to
    // Full is what guarantees every drain terminates in steady
    // state — the ladder cannot stick below Full without traffic.
    const sim::Tick guard =
        std::max<sim::Tick>(config_.brownout.recoveryGuard, 1);
    deviceClock_ += guard;
    setBrownoutLevel(
        static_cast<BrownoutLevel>(static_cast<int>(level_) - 1),
        deviceClock_);
    healthySince_ = deviceClock_;
}

sim::Tick
InferenceServer::brownoutDwell(BrownoutLevel level) const
{
    sim::Tick dwell = levelDwell_[static_cast<int>(level)];
    if (level == level_ && deviceClock_ > levelSince_)
        dwell += deviceClock_ - levelSince_;
    return dwell;
}

sim::Tick
InferenceServer::batchCloseAt() const
{
    if (pending_.empty())
        return sim::maxTick;
    return pending_.front().enqueuedAt + config_.batchMaxWait;
}

std::vector<InferenceServer::Response>
InferenceServer::processAll(std::size_t k)
{
    std::vector<Response> responses;
    while (!pending_.empty()) {
        std::vector<Response> batch = serveOneBatch(k);
        for (Response &response : batch)
            responses.push_back(std::move(response));
    }
    finishDrain(responses);
    return responses;
}

void
InferenceServer::finishDrain(std::vector<Response> &responses)
{
    // An idle server finishes any in-flight swap: without traffic
    // the background daemon keeps ticking the state machine.
    while (redeployActive())
        stepRedeploy();
    // ... and recovers the brownout ladder, so every drain ends in
    // steady state (Full, empty queue).
    while (config_.brownout.enabled()
           && level_ != BrownoutLevel::Full)
        idleRecoverStep();
    for (Response &response : unservedResponses_)
        responses.push_back(std::move(response));
    unservedResponses_.clear();
}

std::vector<InferenceServer::Response>
InferenceServer::serveBatch(std::size_t k)
{
    std::vector<Response> responses;
    if (!pending_.empty()) {
        std::vector<Response> batch = serveOneBatch(k);
        for (Response &response : batch)
            responses.push_back(std::move(response));
    }
    // Drain terminal responses produced outside the batch (admission
    // sheds) so the scheduler sees every outcome once.
    for (Response &response : unservedResponses_)
        responses.push_back(std::move(response));
    unservedResponses_.clear();
    return responses;
}

std::vector<InferenceServer::Response>
InferenceServer::runTraffic(
    sim::TrafficEngine &engine, std::uint64_t count,
    const std::vector<std::vector<float>> &queries, std::size_t k)
{
    ECSSD_ASSERT(!queries.empty(),
                 "traffic serving needs a query pool");
    std::vector<Response> responses;
    responses.reserve(count);

    // Arrivals are drawn lazily one ahead: the engine is a pure
    // function of its config, so the stream is byte-identical per
    // seed no matter how serving interleaves with it.
    std::uint64_t drawn = 0;
    bool have_next = false;
    sim::Arrival next_arrival;
    const auto draw = [&]() {
        if (drawn < count) {
            next_arrival = engine.next();
            ++drawn;
            have_next = true;
        } else {
            have_next = false;
        }
    };
    const auto admit = [&](const sim::Arrival &arrival) {
        enqueueAt(queries[arrival.querySeed % queries.size()],
                  arrival.at, arrival.cls);
    };
    draw();

    while (have_next || !pending_.empty()) {
        // The device idles forward to the next arrival when nothing
        // is queued.
        if (pending_.empty() && have_next
            && next_arrival.at > deviceClock_)
            deviceClock_ = next_arrival.at;
        // Admit everything that has arrived by now.
        while (have_next && next_arrival.at <= deviceClock_) {
            admit(next_arrival);
            draw();
        }
        // Dynamic batching: a partial batch may wait for more
        // arrivals until batchCloseAt(), its oldest member's arrival
        // plus the batch-wait window.
        if (config_.batchMaxWait != 0) {
            while (have_next && !pending_.empty()
                   && pending_.size() < live_.spec.batchSize
                   && next_arrival.at <= batchCloseAt()) {
                deviceClock_ =
                    std::max(deviceClock_, next_arrival.at);
                admit(next_arrival);
                draw();
            }
            if (!pending_.empty()
                && pending_.size() < live_.spec.batchSize) {
                const sim::Tick close = batchCloseAt();
                if (close != sim::maxTick && close > deviceClock_)
                    deviceClock_ = close;
            }
        }
        if (pending_.empty())
            continue;
        std::vector<Response> batch = serveOneBatch(k);
        for (Response &response : batch)
            responses.push_back(std::move(response));
    }

    // Terminal drain: the run provably ends at (Full, empty queue).
    finishDrain(responses);
    return responses;
}

// --- Weight hot swap -------------------------------------------------

Status
InferenceServer::beginRedeploy(
    const numeric::FloatMatrix &weights,
    const xclass::BenchmarkSpec &spec, const RedeployConfig &config,
    const numeric::FloatMatrix *trained_projection)
{
    if (redeployActive())
        return Status::RedeployActive;
    if (weights.rows() != spec.categories
        || weights.cols() != spec.hiddenDim)
        return Status::DimensionMismatch;
    // Queued and future requests carry the serving input width; a
    // swap cannot change it under them.
    if (spec.hiddenDim != live_.spec.hiddenDim)
        return Status::DimensionMismatch;
    redeploy_.begin(live_, weights, spec, trained_projection, config,
                    options_, threadPool_.get(), live_.versionId + 1,
                    deviceClock_);
    return Status::Ok;
}

Status
InferenceServer::redeployAdvance()
{
    if (!redeployActive())
        return Status::NoRedeploy;
    stepRedeploy();
    return Status::Ok;
}

void
InferenceServer::stepRedeploy()
{
    if (!redeployActive())
        return;
    // Serving is synchronous per batch, so at this boundary no
    // request is bound to the old version: a passing validation
    // flips live_ inside the step and commits.
    redeploy_.step(live_, deviceClock_);
    // A committed step flipped in a new system: it records through
    // this server's sinks from its first batch.
    if (redeploy_.phase() == RedeployPhase::Committed)
        live_.system->attachObservability(metrics_, spans_);
}

} // namespace ecssd
