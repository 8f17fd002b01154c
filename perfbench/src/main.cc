/**
 * @file
 * ecssd_perfbench: runs one end-to-end benchmark workload and prints
 * its metrics as one JSON object on the last line of stdout.
 *
 *   ecssd_perfbench --workload trace-s10m --seed 1 --seconds 10
 *                   --trace 0 [--small] [--threads N]
 *                   [--results-dir DIR]
 *
 * The untraced repetitions produce the end-to-end metrics; with
 * --trace 1 one more, instrumented repetition attributes host time
 * to the layers and must reproduce every simulated result exactly.
 * Units, clocks and layer ownership of the metric names live in
 * perfbench/catalog.json; run.py joins the two.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "numeric/kernels.hh"
#include "numeric/mac.hh"
#include "xclass/metrics.hh"

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0
        ? 0
        : std::min(values.size() - 1,
                   static_cast<std::size_t>(rank) - 1);
    return values[index];
}

std::vector<std::vector<std::uint64_t>>
exactTopK(const ecssd::numeric::FloatMatrix &weights,
          const std::vector<std::vector<float>> &queries, std::size_t k)
{
    std::vector<std::vector<std::uint64_t>> answers;
    std::vector<double> scores(weights.rows());
    for (const std::vector<float> &query : queries) {
        for (std::size_t r = 0; r < weights.rows(); ++r)
            scores[r] = ecssd::numeric::referenceDot(weights.row(r), query);
        answers.push_back(ecssd::xclass::topKIndices(
            std::span<const double>(scores), k));
    }
    return answers;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
        ? values[mid]
        : 0.5 * (values[mid - 1] + values[mid]);
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            total += duration(static_cast<int>(i));
    }
    return total;
}

std::uint64_t
SpanLog::count(const std::string &name) const
{
    return static_cast<std::uint64_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&name](const Span &span) {
                          return span.name == name;
                      }));
}

double
SpanLog::selfSeconds(const std::string &name) const
{
    std::vector<double> children(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0)
            children[spans_[i].parent] += duration(static_cast<int>(i));
    }
    double self = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            self += duration(static_cast<int>(i)) - children[i];
    }
    return self;
}

double
SpanLog::attributedSeconds(int root) const
{
    const auto is_layer = [this](int index) {
        return spans_[index].name.find('.') != std::string::npos;
    };
    double attributed = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int index = static_cast<int>(i);
        if (spans_[i].replay || !is_layer(index))
            continue;
        // Outermost layer span below root: no layer ancestor between.
        bool below_root = false;
        bool outermost = true;
        for (int up = spans_[i].parent; up >= 0;
             up = spans_[up].parent) {
            if (up == root) {
                below_root = true;
                break;
            }
            if (is_layer(up))
                outermost = false;
        }
        if (below_root && outermost)
            attributed += duration(index);
    }
    return attributed;
}

void
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        char line[512];
        std::snprintf(line, sizeof(line),
                      "{\"name\": \"%s\", \"start_s\": %.9f, "
                      "\"end_s\": %.9f, \"parent\": %d, \"id\": %llu, "
                      "\"replay\": %s}%s\n",
                      span.name.c_str(), span.start, span.end,
                      span.parent,
                      static_cast<unsigned long long>(span.id),
                      span.replay ? "true" : "false",
                      i + 1 < spans_.size() ? "," : "");
        out << line;
    }
    out << "]\n";
}

void
Report::check(bool ok, const std::string &what)
{
    ++checksRun_;
    if (!ok)
        failedChecks_.push_back(what);
}

namespace
{

/** Layer spans whose inclusive host time is reported as <name>_s. */
const char *const kLayerSpans[] = {
    "xclass.trace_build",    "xclass.trace_draw",
    "accel.run_batch",
    "ecssd.system_build",    "xclass.model_synth",
    "numeric.prepare",       "numeric.int4_score",
    "xclass.screen",         "xclass.rerank",
    "xclass.screener_only",  "ecssd.server_build",
    "ecssd.deploy",          "ecssd.streaming_deploy",
    "xclass.screener_build", "ecssd.calibrate",
    "ecssd.session_screen",  "ecssd.session_classify",
};

/** CPUs this process may run on. */
unsigned
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1U, std::thread::hardware_concurrency());
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

bool
sameSimulation(const SimResult &a, const SimResult &b)
{
    if (a.digest != b.digest || a.values.size() != b.values.size())
        return false;
    for (const auto &[name, value] : a.values) {
        const auto it = b.values.find(name);
        if (it == b.values.end()
            || std::memcmp(&value, &it->second, sizeof(double)) != 0)
            return false;
    }
    return true;
}

/** Names whose values differ between two simulated results. */
std::string
simulationDiff(const SimResult &a, const SimResult &b)
{
    std::ostringstream os;
    if (a.digest != b.digest)
        os << " digest";
    for (const auto &[name, value] : a.values) {
        const auto it = b.values.find(name);
        if (it == b.values.end()
            || std::memcmp(&value, &it->second, sizeof(double)) != 0)
            os << " " << name;
    }
    return os.str();
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

struct Args
{
    std::string workload;
    RunConfig config;
    double seconds = 10.0;
    bool trace = false;
    std::string resultsDir;
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "ecssd_perfbench: " << problem << "\n"
              << "usage: ecssd_perfbench --workload "
                 "trace-s10m|serve-gnmt4k|deploy-a670k-d64 --seed N "
                 "--seconds S --trace 0|1 [--small] [--threads N] "
                 "[--results-dir DIR]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                args.workload = value();
            } else if (flag == "--seed") {
                args.config.seed = std::stoull(value());
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value());
            } else if (flag == "--trace") {
                args.trace = std::stoi(value()) != 0;
            } else if (flag == "--small") {
                args.config.scale = Scale::Small;
            } else if (flag == "--threads") {
                args.config.threads =
                    static_cast<unsigned>(std::stoul(value()));
            } else if (flag == "--results-dir") {
                args.resultsDir = value();
            } else {
                usage("unknown argument " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (args.config.threads == 0)
        usage("--threads must be >= 1");
    return args;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunConfig &config)
{
    if (name == "trace-s10m")
        return makeTraceS10m(config);
    if (name == "serve-gnmt4k")
        return makeServeGnmt4k(config);
    if (name == "deploy-a670k-d64")
        return makeDeployA670kD64(config);
    usage("unknown workload " + name);
}

/** Repetitions always run: setup_s and host_s are their medians. */
constexpr unsigned kMinReps = 3;
/** Upper bound on repetitions, whatever --seconds asks for. */
constexpr unsigned kMaxReps = 12;
/** Stop adding repetitions once the run is this old (seconds). */
constexpr double kWallBudget = 90.0;

int
run(const Args &args)
{
    const unsigned nproc = availableCpus();
    const RunConfig &config = args.config;
    const unsigned threads = config.threads;
    if (threads > nproc) {
        std::cerr << "ecssd_perfbench: " << args.workload << " needs "
                  << threads << " host threads but only " << nproc
                  << " CPUs are available; refusing to oversubscribe\n";
        return 3;
    }
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, config);

    Report report;
    std::vector<double> setup_times;
    std::vector<double> host_times;
    SimResult first;
    double timed = 0.0;
    unsigned reps = 0;
    const Clock::time_point started = Clock::now();
    while (reps < kMinReps
           || (timed < args.seconds && reps < kMaxReps
               && secondsSince(started) < kWallBudget)) {
        Clock::time_point t0 = Clock::now();
        workload->setup(nullptr);
        setup_times.push_back(secondsSince(t0));
        if (reps == 0)
            workload->buildReferences();
        t0 = Clock::now();
        workload->runUntraced();
        host_times.push_back(secondsSince(t0));
        timed += host_times.back();
        SimResult result = workload->result();
        if (reps == 0) {
            first = std::move(result);
            workload->checkOutputs(report);
        } else {
            report.check(sameSimulation(result, first),
                         "repetition " + std::to_string(reps + 1)
                             + " reproduces repetition 1:"
                             + simulationDiff(result, first));
        }
        workload->teardown();
        ++reps;
    }
    const double rss = peakRssMib();

    // End-to-end metrics: host medians over the repetitions plus the
    // (repetition-invariant) simulated results.
    const auto reps64 = static_cast<std::uint64_t>(reps);
    report.set("setup_s", median(setup_times), reps64);
    report.set("host_s", median(host_times), reps64);
    report.set("peak_rss_mb", rss);
    for (const auto &[name, value] : first.values) {
        const auto samples = first.samples.find(name);
        report.set(name, value,
                   samples == first.samples.end() ? 1
                                                  : samples->second);
    }

    if (args.trace) {
        SpanLog spans;
        int setup_span = -1;
        int pass_span = -1;
        {
            Scope scope(&spans, "setup");
            setup_span = scope.index();
            workload->setup(&spans);
        }
        {
            Scope scope(&spans, "pass");
            pass_span = scope.index();
            workload->runTraced(spans);
        }
        const SimResult traced = workload->result();
        report.check(sameSimulation(traced, first),
                     "traced run reproduces the untraced simulated "
                     "results:"
                         + simulationDiff(traced, first));
        workload->reportLayers(report);
        workload->teardown();

        for (const char *name : kLayerSpans) {
            if (spans.count(name) == 0)
                continue;
            const std::string base = name;
            report.set(base + "_s", spans.totalSeconds(base),
                       spans.count(base));
            report.set(base + "_calls",
                       static_cast<double>(spans.count(base)));
        }
        if (spans.count("ecssd.serve_batch") != 0) {
            // The server's own time: each quantum minus its replayed
            // children, plus admission (enqueue) calls.
            report.set("ecssd.serve_self_s",
                       spans.selfSeconds("ecssd.serve_batch")
                           + spans.totalSeconds("ecssd.enqueue"),
                       spans.count("ecssd.serve_batch"));
            report.set(
                "ecssd.serve_self_calls",
                static_cast<double>(spans.count("ecssd.serve_batch")));
        }
        const double setup_wall = spans.duration(setup_span);
        const double traced_host =
            spans.duration(pass_span) - spans.replaySeconds();
        report.set("bench.tracing_overhead_s",
                   traced_host - median(host_times));
        report.set("bench.setup_unattributed_share",
                   (setup_wall - spans.attributedSeconds(setup_span))
                       / setup_wall);
        report.set("bench.host_unattributed_share",
                   (traced_host - spans.attributedSeconds(pass_span))
                       / traced_host);
        if (!args.resultsDir.empty())
            spans.writeJson(args.resultsDir + "/" + args.workload
                            + "-seed" + std::to_string(config.seed)
                            + "-spans.json");
    }

    // Environment stamp + every metric, as one JSON line.
    std::ostringstream out;
    out << "{\"workload\": " << jsonString(args.workload)
        << ", \"seed\": " << config.seed
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"scale\": \""
        << (config.scale == Scale::Small ? "small" : "full") << "\""
        << ", \"reps\": " << reps << ", \"env\": {\"nproc\": " << nproc
        << ", \"host_threads\": " << threads << ", \"isa\": "
        << jsonString(ecssd::numeric::toString(
               ecssd::numeric::activeIsa()))
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER) << "}"
        << ", \"rep_setup_s\": [";
    for (std::size_t i = 0; i < setup_times.size(); ++i)
        out << (i ? ", " : "") << jsonNumber(setup_times[i]);
    out << "], \"rep_host_s\": [";
    for (std::size_t i = 0; i < host_times.size(); ++i)
        out << (i ? ", " : "") << jsonNumber(host_times[i]);
    out << "], \"correct\": " << (report.correct() ? "true" : "false")
        << ", \"checks_run\": " << report.checksRun()
        << ", \"failed_checks\": [";
    for (std::size_t i = 0; i < report.failedChecks().size(); ++i)
        out << (i ? ", " : "") << jsonString(report.failedChecks()[i]);
    out << "], \"attempted\": " << first.attempted
        << ", \"failed\": " << first.failed << ", \"metrics\": {";
    bool comma = false;
    for (const auto &[name, metric] : report.metrics()) {
        out << (comma ? ", " : "") << jsonString(name) << ": ["
            << jsonNumber(metric.value) << ", " << metric.samples << "]";
        comma = true;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception &error) {
        std::cerr << "ecssd_perfbench: " << error.what() << "\n";
        return 1;
    }
}
