/**
 * @file
 * Shared iteration budget of the fuzz campaigns.
 *
 * Every campaign sizes its loops through fuzzIters(), so one
 * environment variable soaks them all: ECSSD_FUZZ_ITERS is a
 * multiplier on the per-commit budget (unset, or <= 1, keeps it; the
 * scheduled CI long-fuzz job sets it to soak far beyond it).
 */

#ifndef ECSSD_TESTS_FUZZ_ITERS_HH
#define ECSSD_TESTS_FUZZ_ITERS_HH

#include <cstdlib>

/** @p base scaled by the ECSSD_FUZZ_ITERS multiplier. */
inline int
fuzzIters(int base)
{
    const char *env = std::getenv("ECSSD_FUZZ_ITERS");
    if (env == nullptr)
        return base;
    const long mult = std::strtol(env, nullptr, 10);
    return mult > 1 ? base * static_cast<int>(mult) : base;
}

#endif // ECSSD_TESTS_FUZZ_ITERS_HH
