/**
 * @file
 * Autotuner determinism tests: the kernel plan must be a pure
 * function of (matrix shape, ISA level) — the same shape yields the
 * same plan on every run and every construction — and an unknown
 * --isa / ECSSD_ISA request dies with a named error before any
 * system is built.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "ecssd/system.hh"
#include "numeric/autotune.hh"
#include "numeric/int4.hh"
#include "numeric/kernels.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;
using namespace ecssd::numeric;

namespace
{

Int4Matrix
smallMatrix(std::size_t rows, std::size_t cols)
{
    FloatMatrix m(rows, cols);
    sim::Rng rng(5);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m.at(r, c) = static_cast<float>(rng.gaussian(0.0, 1.0));
    return Int4Matrix(m);
}

/** Restores the auto-detected active ISA on scope exit. */
struct IsaGuard
{
    ~IsaGuard() { applyIsaRequest("auto"); }
};

} // namespace

TEST(Autotune, RowChunkIsTheDeepestPow2InTheL2Budget)
{
    // 256 KiB of packed rows per chunk, clamped to [512, 4096] rows.
    const std::pair<std::size_t, std::size_t> pinned[] = {
        {0, 4096},   {1, 4096},   {8, 4096},  {64, 4096},
        {128, 2048}, {256, 1024}, {512, 512}, {1u << 20, 512},
    };
    for (const auto &[bytes, chunk] : pinned)
        EXPECT_EQ(rowChunkFor(bytes), chunk) << bytes;
}

TEST(Autotune, PlanIsPureFunctionOfShapeAndIsa)
{
    const Int4Matrix matrix = smallMatrix(3000, 40);
    for (const IsaLevel isa : supportedIsaLevels()) {
        SCOPED_TRACE(toString(isa));
        const KernelPlan first = autotuneScreenerKernels(matrix, isa);
        for (int run = 0; run < 3; ++run) {
            const KernelPlan plan = autotuneScreenerKernels(matrix, isa);
            EXPECT_EQ(plan.isa, isa);
            EXPECT_EQ(plan.rows, matrix.rows());
            EXPECT_EQ(plan.cols, matrix.cols());
            EXPECT_EQ(plan.bytesPerRow, matrix.bytesPerRow());
            EXPECT_EQ(plan.rowChunk, first.rowChunk) << run;
            EXPECT_EQ(plan.rowChunk, rowChunkFor(matrix.bytesPerRow()));
        }
    }
}

TEST(Autotune, ScreenerPlanDeterministicAcrossConstructions)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    const xclass::SyntheticModel model(spec, 1);
    const xclass::Screener first(model.weights(), spec, 2);
    const xclass::Screener second(model.weights(), spec, 2);
    const KernelPlan &a = first.kernelPlan();
    const KernelPlan &b = second.kernelPlan();
    EXPECT_EQ(b.isa, a.isa);
    EXPECT_EQ(b.rowChunk, a.rowChunk);
    EXPECT_EQ(b.rows, a.rows);
    EXPECT_EQ(b.cols, a.cols);
    EXPECT_EQ(a.isa, activeIsa());
    EXPECT_GT(a.rowChunk, 0u);
}

TEST(Autotune, ValidateRejectsUnknownIsaOption)
{
    EcssdOptions options = EcssdOptions::full();
    options.isa = "neon";
    EXPECT_THROW(options.validate(), sim::FatalError);
    options.isa = "avx1024";
    EXPECT_THROW(options.validate(), sim::FatalError);
    options.isa = "vector";
    EXPECT_THROW(options.validate(), sim::FatalError);
    for (const char *good : {"auto", "scalar", "avx2", "avx512"}) {
        options.isa = good;
        EXPECT_NO_THROW(options.validate()) << good;
    }
}

TEST(Autotune, ValidateRejectsUnknownIsaEnvironment)
{
    IsaGuard guard;
    EcssdOptions options = EcssdOptions::full();
    ASSERT_EQ(setenv("ECSSD_ISA", "bogus", 1), 0);
    EXPECT_THROW(options.validate(), sim::FatalError);
    ASSERT_EQ(setenv("ECSSD_ISA", "scalar", 1), 0);
    EXPECT_NO_THROW(options.validate());
    // A pinned env level overrides any option request.
    EXPECT_EQ(applyIsaRequest("auto"), IsaLevel::Scalar);
    ASSERT_EQ(unsetenv("ECSSD_ISA"), 0);
    EXPECT_NO_THROW(options.validate());
}

TEST(Autotune, SetActiveIsaPinsScreenerPlan)
{
    IsaGuard guard;
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    const xclass::SyntheticModel model(spec, 1);
    for (const IsaLevel isa : supportedIsaLevels()) {
        setActiveIsa(isa);
        const xclass::Screener screener(model.weights(), spec, 2);
        EXPECT_EQ(screener.kernelPlan().isa, isa) << toString(isa);
    }
}
