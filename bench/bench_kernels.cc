/**
 * @file
 * Host-compute kernel benchmarks at every runtime-dispatched ISA
 * level (scalar / AVX2 / AVX-512):
 *
 *  - INT4 screening: scalar nibble-at-a-time scoring vs the byte-wise
 *    LUT kernel, single-thread and thread-pooled, at the paper's
 *    screening scale (268K categories x K=64);
 *  - the CFP32 re-rank: AlignmentFreeMac::dot over per-row vectors vs
 *    the slab dot, on a 10% candidate set at D = 64 (65,536 rows) and
 *    D = 1024 (4,096 rows);
 *  - the projection GEMV that prepares every screened query, at
 *    D = 1024 -> K = 256 (serve-gnmt4k's shape).
 *
 *   bench_kernels [google-benchmark flags] [--out DIR]
 *
 * Besides the usual google-benchmark report, the harness measures the
 * same kernels with a best-of-N wall-clock loop and writes
 * BENCH_kernels.json into DIR: absolute per-pass times, rows/s, and
 * the speedups over the kernel family's scalar reference (nibble-wise
 * dotRow; AlignmentFreeMac::dot; the scalar GEMV) and over its scalar
 * level, one entry per (kernel, ISA level) with the screener row
 * chunk and pool threads recorded alongside, and the host's core
 * count in the config.
 * Unlike BENCH_paper.json these numbers are *wall clock* — they are
 * uploaded for trend inspection, never diffed as a CI gate.  Every
 * measured pass is first checked bit-identical against its scalar
 * reference; a divergence aborts the run instead of recording a
 * speedup for wrong results.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "numeric/cfp32.hh"
#include "numeric/int4.hh"
#include "numeric/kernels.hh"
#include "numeric/mac.hh"
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

/** The screener's row chunk for this shape (a pure function of the
 *  row width, so one computation serves every ISA level). */
std::size_t
screenerRowChunk()
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
    pool.parallelFor(0, kRows, screenerRowChunk(),
                     [&](std::size_t b, std::size_t e) {
                         in.matrix.dotRowsLut(b, e, in.widened,
                                              in.feature.scale,
                                              out.data() + b, isa);
                     });
}

/**
 * One CFP32 re-rank shape: @p rows pre-aligned rows of @p dim
 * gaussian weights, both as the slab the classifier keeps and as the
 * per-row vectors AlignmentFreeMac::dot reads, and a sorted 10%
 * candidate set like the screener's.
 */
struct SlabInputs
{
    std::size_t dim = 0;
    std::vector<std::int32_t> slab;
    std::vector<std::uint32_t> rowExponents;
    std::vector<Cfp32Vector> rowVectors;
    Cfp32Vector query;
    std::vector<std::int32_t> queryLo;
    std::vector<std::int32_t> queryHi;
    std::vector<std::uint64_t> candidates;

    SlabInputs(std::size_t rows, std::size_t cols)
        : dim(cols), slab(rows * cols), rowExponents(rows),
          rowVectors(rows), queryLo(cols), queryHi(cols)
    {
        sim::Rng rng(2);
        std::vector<float> values(cols);
        for (std::size_t r = 0; r < rows; ++r) {
            for (float &v : values)
                v = static_cast<float>(rng.gaussian(0.0, 1.0));
            rowExponents[r] = preAlignSigned(values, slab.data() + r * cols,
                                             IsaLevel::Scalar);
            rowVectors[r] = Cfp32Vector::preAlign(values);
            if (rng.uniform() < 0.1)
                candidates.push_back(r);
        }
        for (float &v : values)
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
        query = Cfp32Vector::preAlign(values);
        splitSignificands(query, queryLo.data(), queryHi.data());
    }
};

/** The measured re-rank shapes, built on first use. */
SlabInputs &
slabInputs(std::size_t dim)
{
    static SlabInputs d64(65536, 64);
    static SlabInputs d1024(4096, 1024);
    return dim == 64 ? d64 : d1024;
}

/** One re-rank pass through AlignmentFreeMac::dot (the reference). */
void
macPass(const SlabInputs &in, std::vector<double> &out)
{
    for (std::size_t i = 0; i < in.candidates.size(); ++i)
        out[i] = AlignmentFreeMac::dot(in.rowVectors[in.candidates[i]],
                                       in.query)
                     .value;
}

/** One re-rank pass through the slab dot at @p isa. */
void
slabPass(const SlabInputs &in, IsaLevel isa, std::vector<double> &out)
{
    for (std::size_t i = 0; i < in.candidates.size(); ++i) {
        const std::uint64_t row = in.candidates[i];
        out[i] = AlignmentFreeMac::normalize(
            cfp32SlabDot(in.slab.data() + row * in.dim,
                         in.queryLo.data(), in.queryHi.data(), in.dim,
                         isa),
            in.rowExponents[row], in.query.sharedExponent());
    }
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
BM_Cfp32SlabDot(benchmark::State &state, std::size_t dim, IsaLevel isa)
{
    const SlabInputs &in = slabInputs(dim);
    std::vector<double> out(in.candidates.size());
    for (auto _ : state) {
        slabPass(in, isa, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * in.candidates.size()));
}

/** Register the per-ISA variants of every kernel benchmark. */
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
        for (const std::size_t dim : {64, 1024}) {
            benchmark::RegisterBenchmark(
                ("BM_Cfp32SlabDot/d" + std::to_string(dim) + "/"
                 + suffix)
                    .c_str(),
                [dim, isa](benchmark::State &state) {
                    BM_Cfp32SlabDot(state, dim, isa);
                });
        }
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
    unsigned poolThreads = 1;
    double wallMs = 0.0;
    /** Rows scored (candidate rows re-ranked, outputs projected) per
     *  pass. */
    double rowsPerPass = 0.0;
    /** The family's scalar reference and scalar-level passes. */
    double referenceMs = 0.0;
    double scalarLevelMs = 0.0;
};

/** Best-of-N repeats of one pass. */
constexpr unsigned kRepeats = 5;
/** The re-rank and GEMV passes are short (409 dots at D = 1024; one
 *  1024 x 256 GEMV): more repeats. */
constexpr unsigned kShortRepeats = 20;

/** INT4 screening: nibble-wise reference, then LUT and pooled LUT
 *  per level. */
void
int4Entries(std::vector<Entry> &entries)
{
    const Inputs &in = inputs();
    sim::ThreadPool pool(poolThreads());
    std::vector<double> reference(kRows);
    std::vector<double> out(kRows);
    const std::size_t first = entries.size();

    // The nibble-wise scalar reference everything must match.
    scalarPass(in, reference);
    Entry scalar_entry;
    scalar_entry.name = "scalar_ref_1t";
    scalar_entry.isa = "scalar";
    scalar_entry.wallMs =
        bestMs(kRepeats, [&] { scalarPass(in, out); });
    scalar_entry.rowsPerPass = static_cast<double>(kRows);
    entries.push_back(scalar_entry);

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
        lut.rowChunk = screenerRowChunk();
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
        pooled.rowChunk = screenerRowChunk();
        pooled.poolThreads = poolThreads();
        pooled.wallMs = bestMs(
            kRepeats, [&] { pooledPass(in, isa, pool, out); });
        pooled.rowsPerPass = static_cast<double>(kRows);
        entries.push_back(pooled);
    }
    for (std::size_t e = first; e < entries.size(); ++e) {
        entries[e].referenceMs = scalar_entry.wallMs;
        entries[e].scalarLevelMs = lut_scalar_ms;
    }
    std::printf("int4: scalar %.2f ms, scalar-lut %.2f ms\n",
                scalar_entry.wallMs, lut_scalar_ms);
}

/** The CFP32 re-rank at @p dim: AlignmentFreeMac::dot, then the slab
 *  dot per level. */
void
cfp32Entries(std::size_t dim, std::vector<Entry> &entries)
{
    const SlabInputs &in = slabInputs(dim);
    const std::string suffix = "_d" + std::to_string(dim);
    std::vector<double> reference(in.candidates.size());
    std::vector<double> out(in.candidates.size());
    const std::size_t first = entries.size();

    macPass(in, reference);
    Entry mac;
    mac.name = "cfp32_mac_ref" + suffix;
    mac.isa = "scalar";
    mac.wallMs = bestMs(kShortRepeats, [&] { macPass(in, out); });
    mac.rowsPerPass = static_cast<double>(in.candidates.size());
    entries.push_back(mac);

    double scalar_level_ms = 0.0;
    for (const IsaLevel isa : supportedIsaLevels()) {
        slabPass(in, isa, out);
        // Bits, not values: every score must keep its bits.
        if (std::memcmp(out.data(), reference.data(),
                        out.size() * sizeof(double))
            != 0)
            sim::fatal("cfp32SlabDot at isa=", toString(isa), " d=",
                       dim, " diverges from AlignmentFreeMac::dot; "
                       "refusing to record a speedup");
        Entry slab;
        slab.name = "cfp32_slab" + suffix;
        slab.isa = toString(isa);
        slab.wallMs =
            bestMs(kShortRepeats, [&] { slabPass(in, isa, out); });
        slab.rowsPerPass = static_cast<double>(in.candidates.size());
        entries.push_back(slab);
        if (isa == IsaLevel::Scalar)
            scalar_level_ms = slab.wallMs;
    }
    for (std::size_t e = first; e < entries.size(); ++e) {
        entries[e].referenceMs = mac.wallMs;
        entries[e].scalarLevelMs = scalar_level_ms;
    }
    std::printf("cfp32 d=%zu: mac %.3f ms, scalar slab %.3f ms\n", dim,
                mac.wallMs, scalar_level_ms);
}

/** The 1024 -> 256 projection GEMV per level; the scalar level is the
 *  reference every other level must match bit for bit. */
void
gemvEntries(std::vector<Entry> &entries)
{
    constexpr std::size_t full_dim = 1024;
    constexpr std::size_t shrunk_dim = 256;
    std::vector<float> basis_t(full_dim * shrunk_dim);
    std::vector<float> vec(full_dim);
    sim::Rng rng(3);
    for (float &v : basis_t)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    for (float &v : vec)
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    const auto pass = [&](IsaLevel isa, std::vector<float> &out) {
        projectGemv(basis_t, full_dim, shrunk_dim, vec, out.data(), isa);
    };
    std::vector<float> reference(shrunk_dim);
    std::vector<float> out(shrunk_dim);
    const std::size_t first = entries.size();

    pass(IsaLevel::Scalar, reference);
    double scalar_ms = 0.0;
    for (const IsaLevel isa : supportedIsaLevels()) {
        pass(isa, out);
        if (std::memcmp(out.data(), reference.data(),
                        out.size() * sizeof(float))
            != 0)
            sim::fatal("projectGemv at isa=", toString(isa),
                       " diverges from the scalar level; refusing to "
                       "record a speedup");
        Entry gemv;
        gemv.name = "gemv_1024x256";
        gemv.isa = toString(isa);
        gemv.wallMs = bestMs(kShortRepeats, [&] { pass(isa, out); });
        gemv.rowsPerPass = static_cast<double>(shrunk_dim);
        entries.push_back(gemv);
        if (isa == IsaLevel::Scalar)
            scalar_ms = gemv.wallMs;
    }
    for (std::size_t e = first; e < entries.size(); ++e) {
        entries[e].referenceMs = scalar_ms;
        entries[e].scalarLevelMs = scalar_ms;
    }
    std::printf("gemv 1024x256: scalar %.3f ms\n", scalar_ms);
}

void
writeBaseline(const std::string &out_dir)
{
    const std::string path = out_dir + "/BENCH_kernels.json";
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open '", path, "' for writing");

    std::vector<Entry> entries;
    int4Entries(entries);
    cfp32Entries(64, entries);
    cfp32Entries(1024, entries);
    gemvEntries(entries);

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
        json.key("pool_threads");
        json.value(static_cast<std::uint64_t>(entry.poolThreads));
        json.key("wall_ms");
        json.value(entry.wallMs);
        json.key("rows_per_sec");
        json.value(entry.rowsPerPass / (entry.wallMs / 1e3));
        json.key("speedup_vs_scalar");
        json.value(entry.referenceMs / entry.wallMs);
        json.key("speedup_vs_scalar_level");
        json.value(entry.scalarLevelMs / entry.wallMs);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
    std::printf("wrote %s (%zu entries)\n", path.c_str(),
                entries.size());
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
