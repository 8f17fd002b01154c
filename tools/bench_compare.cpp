/**
 * @file
 * Bench-baseline comparator: the CI perf-regression gate.
 *
 *   bench-compare BASELINE.json CURRENT.json
 *       [--latency-tol FRACTION] [--counter-tol FRACTION]
 *
 * Both files are flat JSON baselines as written by bench_smoke
 * ({"latency": {...}, "counters": {...}}).  Every key of BASELINE
 * must exist in CURRENT and sit within its tolerance — 10% for
 * "latency." keys, 1% for everything else by default (see
 * src/sim/baseline.hh).  Exit 0 = within tolerance, 1 = drift or
 * missing metrics, 2 = usage, IO or malformed-JSON error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/baseline.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench-compare: cannot read '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

int
run(int argc, char **argv)
{
    std::vector<std::string> files;
    ecssd::sim::BaselineTolerance tolerance;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--latency-tol") == 0
            && i + 1 < argc) {
            tolerance.latency = std::strtod(argv[++i], nullptr);
        } else if (std::strcmp(argv[i], "--counter-tol") == 0
                   && i + 1 < argc) {
            tolerance.counter = std::strtod(argv[++i], nullptr);
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "usage: %s BASELINE.json CURRENT.json "
                     "[--latency-tol F] [--counter-tol F]\n",
                     argv[0]);
        return 2;
    }

    const auto baseline =
        ecssd::sim::parseFlatJson(readFile(files[0]));
    const auto current =
        ecssd::sim::parseFlatJson(readFile(files[1]));

    // A baseline with nothing to gate on would "pass" every run —
    // the classic silent failure when a rename or a truncated
    // regeneration empties it.  Treat it as a hard error so CI can
    // never go green on a vacuous comparison.
    std::size_t gated = 0;
    for (const auto &[key, value] : baseline) {
        (void)value;
        if (!ecssd::sim::isTrendKey(key))
            ++gated;
    }
    if (gated == 0) {
        std::fprintf(stderr,
                     "bench-compare: baseline '%s' has no gateable "
                     "metrics (%zu keys, all trend-only or none); "
                     "regenerate it before gating on it\n",
                     files[0].c_str(), baseline.size());
        return 1;
    }

    const std::vector<std::string> failures =
        ecssd::sim::compareBaselines(baseline, current, tolerance);
    if (failures.empty()) {
        std::printf("bench-compare: %zu metrics within tolerance "
                    "(latency %.0f%%, counter %.0f%%)\n",
                    gated, tolerance.latency * 100.0,
                    tolerance.counter * 100.0);
        return 0;
    }
    // Split the diff: a metric that vanished is a different bug (a
    // dropped instrument or renamed key) than one that drifted, and
    // the fix for each is different.
    std::size_t missing = 0;
    for (const std::string &failure : failures) {
        if (failure.rfind("missing metric", 0) == 0)
            ++missing;
    }
    std::fprintf(stderr,
                 "bench-compare: %zu of %zu gated metrics failed "
                 "(%zu missing from current, %zu drifted):\n",
                 failures.size(), gated, missing,
                 failures.size() - missing);
    for (const std::string &failure : failures)
        std::fprintf(stderr, "  %s\n", failure.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const ecssd::sim::FatalError &) {
        // Malformed input: fatal() already printed the reason.
        return 2;
    }
}
