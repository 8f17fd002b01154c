/**
 * @file
 * Open-loop serving study (beyond the paper's closed-loop batches):
 * Poisson request arrivals against one ECSSD, reporting the
 * latency-vs-load curve an operator would provision against.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"

using namespace ecssd;

namespace
{

/** Poisson arrivals at @p rps with every arrival Gold. */
sim::TrafficConfig
poisson(double rps)
{
    sim::TrafficConfig traffic;
    traffic.process = sim::ArrivalProcess::Poisson;
    traffic.ratePerSecond = rps;
    traffic.goldFraction = 1.0;
    return traffic;
}

struct Workbench
{
    Workbench()
        : spec(makeSpec()), model(spec, 61),
          server(std::make_unique<InferenceServer>(
              model.weights(), spec, EcssdOptions::full(),
              &model.basis()))
    {
        sim::Rng rng(62);
        for (int q = 0; q < 16; ++q)
            pool.push_back(model.sampleQuery(rng));
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("XMLCNN-S10M"), 4096);
        spec.hiddenDim = 256;
        return spec;
    }

    void
    fresh()
    {
        server = std::make_unique<InferenceServer>(
            model.weights(), spec, EcssdOptions::full(),
            &model.basis());
    }

    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
    std::unique_ptr<InferenceServer> server;
    std::vector<std::vector<float>> pool;
};

void
printServingCurve()
{
    bench::banner("Open-loop serving: latency vs offered load "
                  "(4096-category replica)");
    Workbench bench_state;
    for (const double rps : {500.0, 2000.0, 8000.0, 16000.0}) {
        bench_state.fresh();
        sim::TrafficEngine engine(poisson(rps));
        bench_state.server->runTraffic(engine, /*count=*/256,
                                       bench_state.pool, /*k=*/5);
        const sim::Percentiles &lat =
            bench_state.server->latencyPercentiles();
        bench::row("load " + std::to_string(int(rps)) + " rps: p50",
                   lat.p50(), "ms");
        bench::row("load " + std::to_string(int(rps)) + " rps: p99",
                   lat.p99(), "ms");
    }
}

void
BM_OpenLoopServing(benchmark::State &state)
{
    Workbench bench_state;
    for (auto _ : state) {
        bench_state.fresh();
        sim::TrafficEngine engine(
            poisson(static_cast<double>(state.range(0))));
        bench_state.server->runTraffic(engine, 64, bench_state.pool,
                                       5);
        benchmark::DoNotOptimize(
            bench_state.server->latencyPercentiles().p99());
    }
    state.counters["sim_p99_ms"] =
        bench_state.server->latencyPercentiles().p99();
}
BENCHMARK(BM_OpenLoopServing)
    ->Arg(1000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printServingCurve();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
