/**
 * @file
 * Host-compute kernel benchmarks: scalar nibble-at-a-time screener
 * scoring vs the byte-wise LUT kernel at every runtime-dispatched
 * ISA level (scalar LUT / AVX2 / AVX-512), plus
 * the thread-pooled and query-batched paths, at the paper's
 * screening scale (268K categories x K=64).
 *
 *   bench_kernels [google-benchmark flags] [--out DIR]
 *
 * Besides the usual google-benchmark report, the harness measures the
 * same kernels with a best-of-N wall-clock loop and writes
 * BENCH_kernels.json into DIR: absolute per-pass times, rows/s, and
 * the speedups over both the nibble-wise scalar reference and the
 * scalar LUT, one entry per (kernel, ISA level) with the tuned row
 * chunk, query tile, and pool threads recorded alongside, and the
 * host's core count in the config.  Unlike BENCH_paper.json these
 * numbers are *wall clock* — they are uploaded for trend inspection,
 * never diffed as a CI gate.  Every measured pass is first checked
 * byte-identical against the scalar reference; a divergence aborts
 * the run instead of recording a speedup for wrong results.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "numeric/autotune.hh"
#include "numeric/int4.hh"
#include "numeric/kernels.hh"
#include "numeric/matrix.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"

using namespace ecssd;
using namespace ecssd::numeric;

namespace
{

/** The screening regime: L x K after projection (Section 2.1). */
constexpr std::size_t kRows = 268000;
constexpr std::size_t kCols = 64;
constexpr std::size_t kBatchQueries = 8;

/** Host cores as the runtime reports them (at least 1). */
unsigned
hostCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** The pooled kernels' threads: 8, or fewer on a smaller host, so the
 *  pool never oversubscribes the cores it is measured on. */
unsigned
poolThreads()
{
    return std::min(8u, hostCores());
}

/** Shared benchmark inputs, built once. */
struct Inputs
{
    Int4Matrix matrix;
    Int4Vector feature;
    std::vector<std::int16_t> widened;

    Inputs()
    {
        FloatMatrix source(kRows, kCols);
        sim::Rng rng(1);
        for (std::size_t r = 0; r < kRows; ++r)
            for (std::size_t c = 0; c < kCols; ++c)
                source.at(r, c) =
                    static_cast<float>(rng.gaussian(0.0, 1.0));
        matrix = Int4Matrix(source);
        std::vector<float> query(kCols);
        for (float &v : query)
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
        feature = quantizeVector(query);
        matrix.widenFeature(feature, widened);
    }
};

Inputs &
inputs()
{
    static Inputs shared;
    return shared;
}

/** The tuned row chunk for this shape (a pure function of the row
 *  width, so one computation serves every ISA level). */
std::size_t
tunedRowChunk()
{
    static const std::size_t chunk =
        rowChunkFor(inputs().matrix.bytesPerRow());
    return chunk;
}

/** One full scalar scoring pass (the pre-LUT reference path). */
void
scalarPass(const Inputs &in, std::vector<double> &out)
{
    for (std::size_t r = 0; r < kRows; ++r)
        out[r] = in.matrix.dotRow(r, in.feature);
}

/** One full single-thread LUT pass at @p isa. */
void
lutPass(const Inputs &in, IsaLevel isa, std::vector<double> &out)
{
    in.matrix.dotRowsLut(0, kRows, in.widened, in.feature.scale,
                         out.data(), isa);
}

/** One full thread-pooled LUT pass at @p isa. */
void
pooledPass(const Inputs &in, IsaLevel isa, sim::ThreadPool &pool,
           std::vector<double> &out)
{
    pool.parallelFor(0, kRows, tunedRowChunk(),
                     [&](std::size_t b, std::size_t e) {
                         in.matrix.dotRowsLut(b, e, in.widened,
                                              in.feature.scale,
                                              out.data() + b, isa);
                     });
}

/** Replicated-query batch inputs for the blocked kernel. */
struct BatchInputs
{
    std::size_t stride = 0;
    std::vector<std::int16_t> features;
    std::vector<float> scales;

    explicit BatchInputs(const Inputs &in)
        : stride(2 * in.matrix.bytesPerRow()),
          features(kBatchQueries * stride),
          scales(kBatchQueries, in.feature.scale)
    {
        for (std::size_t q = 0; q < kBatchQueries; ++q)
            std::copy(in.widened.begin(), in.widened.end(),
                      features.begin()
                          + static_cast<std::ptrdiff_t>(q * stride));
    }
};

/** One full single-thread batched LUT pass at @p isa. */
void
batchPass(const Inputs &in, const BatchInputs &batch, IsaLevel isa,
          std::vector<double> &out)
{
    in.matrix.dotRowsBatchLut(0, kRows, batch.features.data(),
                              kBatchQueries, batch.stride,
                              batch.scales.data(), out.data(), kRows,
                              isa);
}

void
BM_ScreenerScalar(benchmark::State &state)
{
    const Inputs &in = inputs();
    std::vector<double> out(kRows);
    for (auto _ : state) {
        scalarPass(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_ScreenerScalar);

void
BM_ScreenerLut(benchmark::State &state, IsaLevel isa)
{
    const Inputs &in = inputs();
    std::vector<double> out(kRows);
    for (auto _ : state) {
        lutPass(in, isa, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRows));
}

void
BM_ScreenerLutPooled(benchmark::State &state, IsaLevel isa)
{
    const Inputs &in = inputs();
    sim::ThreadPool pool(poolThreads());
    std::vector<double> out(kRows);
    for (auto _ : state) {
        pooledPass(in, isa, pool, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRows));
}

void
BM_ScreenerBatchLut(benchmark::State &state, IsaLevel isa)
{
    const Inputs &in = inputs();
    const BatchInputs batch(in);
    std::vector<double> out(kBatchQueries * kRows);
    for (auto _ : state) {
        batchPass(in, batch, isa, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * kRows * kBatchQueries));
}

/** Register the per-ISA variants of every LUT benchmark. */
void
registerIsaBenchmarks()
{
    for (const IsaLevel isa : supportedIsaLevels()) {
        const std::string suffix = toString(isa);
        benchmark::RegisterBenchmark(
            ("BM_ScreenerLut/" + suffix).c_str(),
            [isa](benchmark::State &state) {
                BM_ScreenerLut(state, isa);
            });
        benchmark::RegisterBenchmark(
            ("BM_ScreenerLutPooled/" + suffix).c_str(),
            [isa](benchmark::State &state) {
                BM_ScreenerLutPooled(state, isa);
            });
        benchmark::RegisterBenchmark(
            ("BM_ScreenerBatchLut/" + suffix).c_str(),
            [isa](benchmark::State &state) {
                BM_ScreenerBatchLut(state, isa);
            });
    }
}

/** Best-of-N wall-clock milliseconds of @p pass. */
template <typename Pass>
double
bestMs(unsigned repeats, const Pass &pass)
{
    double best = 0.0;
    for (unsigned i = 0; i < repeats; ++i) {
        const auto start = std::chrono::steady_clock::now();
        pass();
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        best = (i == 0) ? ms : std::min(best, ms);
    }
    return best;
}

/** One measured baseline row of the JSON dump. */
struct Entry
{
    std::string name;
    std::string isa;
    std::size_t rowChunk = 0;
    std::size_t queryTile = 0;
    unsigned poolThreads = 1;
    double wallMs = 0.0;
    /** Rows scored per pass (kRows, or kRows * queries batched). */
    double rowsPerPass = 0.0;
};

void
writeBaseline(const std::string &out_dir)
{
    const Inputs &in = inputs();
    const BatchInputs batch(in);
    sim::ThreadPool pool(poolThreads());
    std::vector<double> reference(kRows);
    std::vector<double> out(kRows);
    std::vector<double> batch_out(kBatchQueries * kRows);

    constexpr unsigned kRepeats = 5;
    std::vector<Entry> entries;

    // The nibble-wise scalar reference everything must match.
    scalarPass(in, reference);
    Entry scalar_entry;
    scalar_entry.name = "scalar_ref_1t";
    scalar_entry.isa = "scalar";
    scalar_entry.wallMs =
        bestMs(kRepeats, [&] { scalarPass(in, out); });
    scalar_entry.rowsPerPass = static_cast<double>(kRows);
    entries.push_back(scalar_entry);
    const double scalar_ms = scalar_entry.wallMs;

    // The speedup claims are only meaningful if the fast paths
    // compute the same bits as the reference.
    const auto check = [&](const std::vector<double> &got,
                           const char *what, IsaLevel isa) {
        for (std::size_t r = 0; r < kRows; ++r) {
            if (got[r] != reference[r])
                sim::fatal(what, " at isa=", toString(isa),
                           " diverges from the scalar reference at "
                           "row ",
                           r, "; refusing to record a speedup");
        }
    };

    double lut_scalar_ms = 0.0;
    for (const IsaLevel isa : supportedIsaLevels()) {
        const char *level = toString(isa);

        lutPass(in, isa, out);
        check(out, "dotRowsLut", isa);
        Entry lut;
        lut.name = "lut_1t";
        lut.isa = level;
        lut.rowChunk = tunedRowChunk();
        lut.wallMs = bestMs(kRepeats, [&] { lutPass(in, isa, out); });
        lut.rowsPerPass = static_cast<double>(kRows);
        entries.push_back(lut);
        if (isa == IsaLevel::Scalar)
            lut_scalar_ms = lut.wallMs;

        pooledPass(in, isa, pool, out);
        check(out, "pooled dotRowsLut", isa);
        Entry pooled;
        pooled.name = "lut_pooled";
        pooled.isa = level;
        pooled.rowChunk = tunedRowChunk();
        pooled.poolThreads = poolThreads();
        pooled.wallMs = bestMs(
            kRepeats, [&] { pooledPass(in, isa, pool, out); });
        pooled.rowsPerPass = static_cast<double>(kRows);
        entries.push_back(pooled);

        batchPass(in, batch, isa, batch_out);
        for (std::size_t q = 0; q < kBatchQueries; ++q)
            for (std::size_t r = 0; r < kRows; ++r)
                if (batch_out[q * kRows + r] != reference[r])
                    sim::fatal("dotRowsBatchLut at isa=", level,
                               " diverges from the scalar reference; "
                               "refusing to record a speedup");
        Entry batched;
        batched.name = "batch_1t";
        batched.isa = level;
        batched.rowChunk = tunedRowChunk();
        batched.queryTile = Int4Matrix::kDefaultQueryTile;
        batched.wallMs = bestMs(
            kRepeats, [&] { batchPass(in, batch, isa, batch_out); });
        batched.rowsPerPass =
            static_cast<double>(kRows * kBatchQueries);
        entries.push_back(batched);
    }

    const std::string path = out_dir + "/BENCH_kernels.json";
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open '", path, "' for writing");
    sim::JsonWriter json(os);
    json.beginObject();
    json.key("config");
    json.beginObject();
    json.key("rows");
    json.value(static_cast<std::uint64_t>(kRows));
    json.key("cols");
    json.value(static_cast<std::uint64_t>(kCols));
    json.key("nproc");
    json.value(static_cast<std::uint64_t>(hostCores()));
    json.key("pool_threads");
    json.value(static_cast<std::uint64_t>(poolThreads()));
    json.key("batch_queries");
    json.value(static_cast<std::uint64_t>(kBatchQueries));
    json.key("best_isa");
    json.value(toString(detectBestIsa()));
    json.endObject();
    json.key("entries");
    json.beginArray();
    for (const Entry &entry : entries) {
        json.beginObject();
        json.key("name");
        json.value(entry.name);
        json.key("isa");
        json.value(entry.isa);
        json.key("row_chunk");
        json.value(static_cast<std::uint64_t>(entry.rowChunk));
        json.key("query_tile");
        json.value(static_cast<std::uint64_t>(entry.queryTile));
        json.key("pool_threads");
        json.value(static_cast<std::uint64_t>(entry.poolThreads));
        json.key("wall_ms");
        json.value(entry.wallMs);
        json.key("rows_per_sec");
        json.value(entry.rowsPerPass / (entry.wallMs / 1e3));
        json.key("speedup_vs_scalar");
        json.value(scalar_ms * (entry.rowsPerPass
                                / static_cast<double>(kRows))
                   / entry.wallMs);
        json.key("speedup_vs_lut_scalar");
        json.value(lut_scalar_ms * (entry.rowsPerPass
                                    / static_cast<double>(kRows))
                   / entry.wallMs);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";

    double best_lut_ms = lut_scalar_ms;
    for (const Entry &entry : entries)
        if (entry.name == "lut_1t")
            best_lut_ms = std::min(best_lut_ms, entry.wallMs);
    std::printf("wrote %s (scalar %.2f ms, scalar-lut %.2f ms, best "
                "simd lut %.2f ms, simd-vs-lut %.2fx)\n",
                path.c_str(), scalar_ms, lut_scalar_ms, best_lut_ms,
                lut_scalar_ms / best_lut_ms);
}

} // namespace

int
main(int argc, char **argv)
{
    registerIsaBenchmarks();
    benchmark::Initialize(&argc, argv);
    std::string out_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: %s [benchmark flags] [--out DIR]\n",
                argv[0]);
            return 2;
        }
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!out_dir.empty())
        writeBaseline(out_dir);
    return 0;
}
