/**
 * @file
 * Shared machinery of the end-to-end benchmark: the metric report,
 * the in-memory span log of the traced run, and the interface every
 * workload implements.
 *
 * A workload is measured in repetitions.  One repetition builds the
 * workload from scratch (setup_s) and runs its fixed-size timed phase
 * (host_s).  Simulated results are a pure function of the seed, so
 * every repetition must reproduce the first one bit for bit; the
 * traced repetition must too, although it drives the layers through
 * a different (instrumented) call sequence.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "numeric/matrix.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Sizes of one run: the full benchmark or the fast self-test mode. */
enum class Scale
{
    Full,
    Small,
};

/** Command-line settings every workload sees. */
struct RunConfig
{
    std::uint64_t seed = 1;
    Scale scale = Scale::Full;
    /** Host threads (EcssdOptions::threads); never more than nproc. */
    unsigned threads = 1;
};

/**
 * Simulated outcome of one timed phase: every simulated metric and
 * count, plus a digest of the per-request outputs.  Two passes with
 * one seed must produce equal SimResults (compared exactly).
 */
struct SimResult
{
    /** Metric values, compared exactly between passes. */
    std::map<std::string, double> values;
    /** FNV-1a digest over the per-request/per-batch outputs. */
    std::uint64_t digest = 0;
    /** Sample counts of the distribution metrics, by metric name. */
    std::map<std::string, std::uint64_t> samples;
    /** Operations attempted / failed in the phase. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Incremental FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xffU;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * In-memory span log of the traced run.  Spans nest through an open
 * stack; a span whose name contains a '.' is a layer span
 * ("accel.run_batch"), anything else is structure ("batch").  Replay
 * spans re-run a quantum's work outside the call they explain: they
 * are logged as children of that call, and their wall time is kept
 * out of the traced phase's host time.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::uint64_t id = 0;
        bool replay = false;
    };

    SpanLog() : origin_(Clock::now()) {}

    int
    open(const std::string &name, std::uint64_t id = 0)
    {
        Span span;
        span.name = name;
        span.start = now();
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.id = id;
        span.replay = replayDepth_ > 0;
        spans_.push_back(std::move(span));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int index)
    {
        spans_[index].end = now();
        stack_.pop_back();
    }

    /** Make @p index the parent of the spans opened until the
     *  matching endReplay(), and keep their wall time apart. */
    void
    beginReplay(int index)
    {
        stack_.push_back(index);
        ++replayDepth_;
        replayStart_ = now();
    }

    void
    endReplay()
    {
        replaySeconds_ += now() - replayStart_;
        --replayDepth_;
        stack_.pop_back();
    }

    /** Index of the innermost open span (-1 when none). */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    double replaySeconds() const { return replaySeconds_; }

    /** Total duration and count of the spans named @p name. */
    double totalSeconds(const std::string &name) const;
    std::uint64_t count(const std::string &name) const;

    /** Sum of (duration - children's durations) over spans named
     *  @p name. */
    double selfSeconds(const std::string &name) const;

    /**
     * Layer-attributed time inside the span @p root: the summed
     * durations of the outermost non-replay layer spans below it.
     */
    double attributedSeconds(int root) const;

    double duration(int index) const
    {
        return spans_[index].end - spans_[index].start;
    }

    /** Write the spans as a JSON array. */
    void writeJson(const std::string &path) const;

  private:
    double
    now() const
    {
        return secondsSince(origin_);
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int replayDepth_ = 0;
    double replayStart_ = 0.0;
    double replaySeconds_ = 0.0;
};

/** RAII span; a null log makes it a no-op. */
class Scope
{
  public:
    Scope(SpanLog *log, const std::string &name, std::uint64_t id = 0)
        : log_(log), index_(log ? log->open(name, id) : -1)
    {
    }

    ~Scope()
    {
        if (log_)
            log_->close(index_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return index_; }

  private:
    SpanLog *log_;
    int index_;
};

/** RAII replay region (see SpanLog::beginReplay). */
class ReplayScope
{
  public:
    ReplayScope(SpanLog &log, int parent) : log_(log)
    {
        log_.beginReplay(parent);
    }
    ~ReplayScope() { log_.endReplay(); }

    ReplayScope(const ReplayScope &) = delete;
    ReplayScope &operator=(const ReplayScope &) = delete;

  private:
    SpanLog &log_;
};

/** One reported metric: its value and how many samples it rests
 *  on.  Units and clocks are catalog facts (catalog.json). */
struct Metric
{
    double value = 0.0;
    std::uint64_t samples = 1;
};

/** Metrics plus the pass/fail list of the output checks. */
class Report
{
  public:
    void
    set(const std::string &name, double value,
        std::uint64_t samples = 1)
    {
        metrics_[name] = Metric{value, samples};
    }

    /** Record one output check; a failure makes the run incorrect. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failedChecks_.empty(); }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }
    const std::vector<std::string> &failedChecks() const
    {
        return failedChecks_;
    }
    std::size_t checksRun() const { return checksRun_; }

  private:
    std::map<std::string, Metric> metrics_;
    std::vector<std::string> failedChecks_;
    std::size_t checksRun_ = 0;
};

/**
 * One benchmark workload.  The runner calls setup(), then either
 * runUntraced() or runTraced(), then result()/checkOutputs(), then
 * teardown(), once per repetition.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the workload; spans are recorded when @p spans is set. */
    virtual void setup(SpanLog *spans) = 0;

    /** Exact reference answers, computed once after the first setup
     *  and outside every timed phase. */
    virtual void buildReferences() {}

    /** The timed phase through the layers' public entry points. */
    virtual void runUntraced() = 0;

    /** The timed phase driven call by call, with layer spans. */
    virtual void runTraced(SpanLog &spans) = 0;

    /** Simulated outcome of the last timed phase. */
    virtual SimResult result() const = 0;

    /** Output checks on the last timed phase. */
    virtual void checkOutputs(Report &report) const = 0;

    /**
     * After a traced phase: the per-layer metrics only it produces and
     * the checks that its replays matched the calls they explain.
     */
    virtual void reportLayers(Report &report) const = 0;

    /** Release the repetition's state. */
    virtual void teardown() = 0;
};

std::unique_ptr<Workload> makeTraceS10m(const RunConfig &config);
std::unique_ptr<Workload> makeServeGnmt4k(const RunConfig &config);
std::unique_ptr<Workload> makeDeployA670kD64(const RunConfig &config);

/**
 * Exact FP32 top-@p k rows of @p weights for each query: the
 * reference answers recall is checked against.
 */
std::vector<std::vector<std::uint64_t>> exactTopK(
    const ecssd::numeric::FloatMatrix &weights,
    const std::vector<std::vector<float>> &queries, std::size_t k);

/** Nearest-rank quantile of @p values (copied, then sorted). */
double quantile(std::vector<double> values, double q);

/** Median of @p values (mean of the middle two for even counts). */
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
