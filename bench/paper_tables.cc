/**
 * @file
 * One program for every simulated number the project gates: each table
 * of the paper's evaluation (Table 4, Figs 1 and 8-13, Sections 4.2
 * and 7.1-7.3) and the studies beyond it (ablations, energy, open-loop
 * serving, the hot-row cache, closed-loop serving, a hot swap, open-loop
 * overload, two tenants on one device, the streaming deploy and the
 * background re-layout):
 *
 *   paper_tables [--out DIR]
 *
 * Writes DIR/BENCH_paper.json (DIR defaults to ".") with one entry per
 * measured value: {"measured", "unit", "paper"}.  "paper" is the
 * paper's figure: a number where the paper gives one, a string for a
 * qualitative claim such as "<10%", and absent where the paper reports
 * nothing.  stdout gets the same values as the markdown tables
 * EXPERIMENTS.md carries verbatim.
 *
 * A key names the scale it was measured at.  A Table 3 name
 * (GNMT-E32K, XMLCNN-S100M, ...) means the full category count;
 * sections that keep a reduced shape name it (XMLCNN-S10M-65536,
 * GNMT-E32K-2048x256, synthetic-200000x32).  Each simulation runs once
 * and feeds every figure that reads it: Fig 8's step 4 is also Fig 13's
 * ECSSD column, Fig 1's point C and Sec 7.1's 100M-row shard, and Fig
 * 8's S10M step 2 is Fig 1's point B.  Every value is simulated time,
 * an analytic model or a deterministic count, so the file is
 * byte-identical across runs and ISA levels, and CI compares it with
 * the checked-in copy by `diff -u`.  The serving-side sections also
 * check their invariants (no lost request, a committed swap, a
 * contained noisy neighbour, a spilling deploy inside its budget, a
 * re-layout that recovers the balance gap) and stop with sim::fatal
 * when one fails.  A failed invariant or an unwritable DIR (checked
 * before the first section) exits with status 2.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "accel/candidate_source.hh"
#include "baselines/baselines.hh"
#include "baselines/enmc.hh"
#include "circuit/accelerator_model.hh"
#include "circuit/mac_circuit.hh"
#include "ecssd/multi_tenant.hh"
#include "ecssd/scale_out.hh"
#include "ecssd/server.hh"
#include "ecssd/streaming_deploy.hh"
#include "ecssd/system.hh"
#include "layout/strategy.hh"
#include "numeric/cfp32.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;

namespace
{

/** One BENCH_paper.json entry. */
struct Entry
{
    std::string key;
    double measured = 0.0;
    std::string unit;
    /** The paper's figure; empty where it gives none. */
    std::string paper;
};

/** One markdown table of the stdout report. */
struct Table
{
    std::string title;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

std::string
orDash(const std::string &paper)
{
    return paper.empty() ? "–" : paper;
}

/** Shortest text of a key parameter (0.25, 3, 16384). */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/** Every entry and table of one invocation, in print order. */
class Report
{
  public:
    /** Open a table; later rows go into it. */
    void
    table(const std::string &title,
          std::vector<std::string> header = {"Key", "Unit", "Paper",
                                             "Measured"})
    {
        tables_.push_back({title, std::move(header), {}});
    }

    /** Record @p measured under @p key and return its table cell. */
    std::string
    cell(const std::string &key, double measured,
         const std::string &unit, const std::string &paper = "")
    {
        if (!keys_.insert(key).second)
            sim::fatal("paper_tables: duplicate key '", key, "'");
        entries_.push_back({key, measured, unit, paper});
        char buf[32];
        std::snprintf(buf, sizeof(buf),
                      measured == std::floor(measured) ? "%.0f"
                                                       : "%.4f",
                      measured);
        return buf;
    }

    void
    row(std::vector<std::string> cells)
    {
        tables_.back().rows.push_back(std::move(cells));
    }

    /** One row of the default table shape. */
    void
    add(const std::string &key, double measured,
        const std::string &unit, const std::string &paper = "")
    {
        const std::string value = cell(key, measured, unit, paper);
        row({"`" + key + "`", unit, orDash(paper), value});
    }

    /** Write every entry to @p os, the opened @p path. */
    void
    writeJson(std::ostream &os, const std::string &path) const
    {
        sim::JsonWriter json(os);
        json.beginObject();
        for (const Entry &entry : entries_) {
            json.key(entry.key);
            json.beginObject();
            json.key("measured");
            json.value(entry.measured);
            json.key("unit");
            json.value(entry.unit);
            if (!entry.paper.empty()) {
                json.key("paper");
                char *end = nullptr;
                const double paper =
                    std::strtod(entry.paper.c_str(), &end);
                if (*end == '\0')
                    json.value(paper);
                else
                    json.value(entry.paper);
            }
            json.endObject();
        }
        json.endObject();
        std::fprintf(stderr, "wrote %s (%zu entries)\n", path.c_str(),
                     entries_.size());
    }

    void
    printMarkdown() const
    {
        const auto print_row = [](const std::vector<std::string> &cells) {
            for (const std::string &cell : cells)
                std::printf("| %s ", cell.c_str());
            std::printf("|\n");
        };
        const char *separator = "";
        for (const Table &table : tables_) {
            std::printf("%s### %s\n\n", separator, table.title.c_str());
            separator = "\n";
            print_row(table.header);
            for (std::size_t c = 0; c < table.header.size(); ++c)
                std::printf("|---");
            std::printf("|\n");
            for (const std::vector<std::string> &cells : table.rows)
                print_row(cells);
        }
    }

  private:
    std::vector<Entry> entries_;
    std::set<std::string> keys_;
    std::vector<Table> tables_;
};

/** Mean batch latency, channel utilization and the traffic counters
 *  (summed over batches) of one run. */
struct Run
{
    double batchMs = 0.0;
    double utilization = 0.0;
    std::uint64_t candidateRows = 0;
    std::uint64_t fp32PagesRead = 0;
    std::uint64_t int4PagesRead = 0;
};

Run
measure(const xclass::BenchmarkSpec &spec, const EcssdOptions &options,
        unsigned batches)
{
    EcssdSystem system(spec, options);
    const accel::RunResult result = system.runInference(batches);
    Run run{result.meanBatchMs(), result.channelUtilization};
    for (const accel::BatchTiming &batch : result.batches) {
        run.candidateRows += batch.candidateRows;
        run.fp32PagesRead += batch.fp32PagesRead;
        run.int4PagesRead += batch.int4PagesRead;
    }
    return run;
}

/**
 * Fig 8's five design points, each adding one technique.  Step 0 is
 * the naive MAC with sequential storing and the homogeneous layout;
 * steps 1-4 add uniform interleaving, the alignment-free MAC, the
 * heterogeneous layout and learning-based interleaving.  Step 4 equals
 * EcssdOptions::full().
 */
std::array<EcssdOptions, 5>
fig8Steps()
{
    EcssdOptions step0 = EcssdOptions::startingBaseline();
    EcssdOptions step1 = step0;
    step1.layoutKind = layout::LayoutKind::Uniform;
    EcssdOptions step2 = step1;
    step2.fpKind = circuit::FpMacKind::AlignmentFree;
    EcssdOptions step3 = step2;
    step3.int4Placement = accel::Int4Placement::Dram;
    EcssdOptions step4 = step3;
    step4.layoutKind = layout::LayoutKind::LearningAdaptive;
    return {step0, step1, step2, step3, step4};
}

/** Fig 8's five steps, one batch each, per Table 3 benchmark. */
using Ladder = std::map<std::string, std::array<Run, 5>>;

Ladder
runLadder()
{
    Ladder ladder;
    const auto steps = fig8Steps();
    for (const xclass::BenchmarkSpec &spec : xclass::table3Benchmarks())
        for (std::size_t s = 0; s < steps.size(); ++s)
            ladder[spec.name][s] = measure(spec, steps[s], 1);
    return ladder;
}

/** Fig 12's storing strategies, two batches each. */
struct Storing
{
    double sequential = 0.0;
    double uniform = 0.0;
    double learning = 0.0;
};

std::map<std::string, Storing>
runStoring()
{
    std::map<std::string, Storing> storing;
    for (const char *name : {"GNMT-E32K", "LSTM-W33K",
                             "Transformer-W268K", "XMLCNN-A670K"}) {
        const xclass::BenchmarkSpec spec = xclass::benchmarkByName(name);
        EcssdOptions options = EcssdOptions::full();
        Storing &runs = storing[name];
        options.layoutKind = layout::LayoutKind::Sequential;
        runs.sequential = measure(spec, options, 2).batchMs;
        options.layoutKind = layout::LayoutKind::Uniform;
        runs.uniform = measure(spec, options, 2).batchMs;
        options.layoutKind = layout::LayoutKind::LearningAdaptive;
        runs.learning = measure(spec, options, 2).batchMs;
    }
    return storing;
}

/** FP32-stage intensity: a candidate weight byte serves 2*batch/4
 *  FLOPs. */
double
fp32Intensity(const xclass::BenchmarkSpec &spec)
{
    return 2.0 * spec.batchSize / 4.0;
}

/** GFLOPS of @p mac filling the 64-MAC alignment-free array's area. */
double
isoAreaGflops(const circuit::CircuitBlock &mac)
{
    return circuit::peakGflops(circuit::macsInArea(
        mac,
        circuit::macArray(circuit::alignmentFreeFp32Mac(), 64)
            .areaMm2()));
}

void
table4(Report &out)
{
    out.table("Table 4 — accelerator area and power (analytic; the "
              "component constants are calibrated to the totals, so "
              "this matches by construction)");
    const circuit::AcceleratorEstimate est =
        circuit::estimateAccelerator(circuit::AcceleratorConfig{});
    // The estimate's rows in order, with the paper's figures.
    const struct
    {
        const char *key;
        const char *area;
        const char *power;
    } blocks[] = {{"fp32_mac_array", "0.139", "33.87"},
                  {"int4_mac_array", "0.044", "19.04"},
                  {"comparator", "0.0004", "0.016"},
                  {"scheduler", "0.0002", "0.004"}};
    ECSSD_ASSERT(est.rows.size() == std::size(blocks));
    for (std::size_t i = 0; i < est.rows.size(); ++i) {
        const std::string key = std::string("table4.") + blocks[i].key;
        out.add(key + ".area_mm2", est.rows[i].areaMm2, "mm^2",
                blocks[i].area);
        out.add(key + ".power_mw", est.rows[i].powerMw, "mW",
                blocks[i].power);
    }
    out.add("table4.total.area_mm2", est.totalAreaMm2, "mm^2",
            "0.1836");
    out.add("table4.total.power_mw", est.totalPowerMw, "mW", "52.93");
    out.add("table4.fits_0.21mm2_budget", est.fitsBudget(), "bool",
            "yes");

    // Section 6.2: naive FP32 at iso-performance.
    circuit::AcceleratorConfig naive;
    naive.fpKind = circuit::FpMacKind::Naive;
    naive.fp32Macs = circuit::macsForGflops(circuit::peakGflops(64));
    const circuit::AcceleratorEstimate naive_est =
        circuit::estimateAccelerator(naive);
    out.add("table4.naive_iso_perf.area_mm2",
            naive_est.rows[0].areaMm2, "mm^2", "0.24");
    out.add("table4.naive_iso_perf.power_mw",
            naive_est.rows[0].powerMw, "mW", "51.8");
    out.add("table4.naive_iso_perf.fits_budget",
            naive_est.fitsBudget(), "bool", "no");
}

void
fig1(Report &out, const Ladder &ladder)
{
    out.table("Fig 1 — roofline: points A and B analytic at batch 8, "
              "achieved points on XMLCNN-S10M (Fig 8 steps 2 and 4)");
    const double bandwidth = ssdsim::SsdConfig{}.internalBandwidthGbps();
    const double intensity =
        fp32Intensity(xclass::benchmarkByName("LSTM-W33K"));
    const circuit::RooflinePoint a = circuit::roofline(
        isoAreaGflops(circuit::naiveFp32Mac()), bandwidth, intensity);
    const circuit::RooflinePoint b =
        circuit::roofline(circuit::peakGflops(64), bandwidth, intensity);
    out.add("fig1.A.attainable_gflops", a.attainableGflops, "GFLOPS");
    out.add("fig1.A.compute_bound", a.computeBound, "bool", "yes");
    out.add("fig1.B.attainable_gflops", b.attainableGflops, "GFLOPS");
    out.add("fig1.B.compute_bound", b.computeBound, "bool", "no");

    // Achieved bandwidth scales the attainable rate: the uniform
    // layout with INT4 in flash (step 2) against the co-designed
    // layout (step 4).
    const std::array<Run, 5> s10m = ladder.at("XMLCNN-S10M");
    out.add("fig1.XMLCNN-S10M.B.achieved_gflops",
            s10m[2].utilization * b.attainableGflops, "GFLOPS");
    out.add("fig1.XMLCNN-S10M.C.achieved_gflops",
            s10m[4].utilization * b.attainableGflops, "GFLOPS");
    out.add("fig1.XMLCNN-S10M.C_over_B",
            s10m[4].utilization / s10m[2].utilization, "x");
}

void
fig8(Report &out, const Ladder &ladder)
{
    const std::vector<xclass::BenchmarkSpec> benchmarks =
        xclass::table3Benchmarks();
    const struct
    {
        const char *name;
        const char *unit;
        const char *title;
        const char *paper[5];
        double (*of)(const std::array<Run, 5> &, std::size_t);
    } metrics[] = {
        {"speedup", "x",
         "speedup over step 0 (steps: 0 naive MAC + sequential storing "
         "+ homogeneous layout, 1 + uniform interleaving, 2 + "
         "alignment-free MAC, 3 + heterogeneous layout, 4 + "
         "learning-based interleaving)",
         {"1.0", "4.06", "", "", "10.5"},
         [](const std::array<Run, 5> &runs, std::size_t s) {
             return runs[0].batchMs / runs[s].batchMs;
         }},
        {"util_pct", "%", "channel utilization, %",
         {"<10%", "44.31", "", "67.6", "94.7"},
         [](const std::array<Run, 5> &runs, std::size_t s) {
             return runs[s].utilization * 100.0;
         }},
        {"batch_ms", "ms", "batch latency, ms",
         {"", "", "", "", ""},
         [](const std::array<Run, 5> &runs, std::size_t s) {
             return runs[s].batchMs;
         }},
    };
    for (const auto &metric : metrics) {
        out.table(std::string("Fig 8 — ") + metric.title
                      + ", each Table 3 benchmark at full size, one "
                        "batch (`fig8.<benchmark>.step<N>."
                      + metric.name + "`; mean row `fig8.avg`)",
                  {"Benchmark", "step 0", "step 1", "step 2", "step 3",
                   "step 4"});
        std::array<double, 5> sum{};
        for (const xclass::BenchmarkSpec &spec : benchmarks) {
            std::vector<std::string> cells = {spec.name};
            for (std::size_t s = 0; s < 5; ++s) {
                const double value = metric.of(ladder.at(spec.name), s);
                sum[s] += value;
                cells.push_back(out.cell("fig8." + spec.name + ".step"
                                             + std::to_string(s) + "."
                                             + metric.name,
                                         value, metric.unit));
            }
            out.row(cells);
        }
        std::vector<std::string> mean = {"mean"};
        std::vector<std::string> paper = {"paper"};
        for (std::size_t s = 0; s < 5; ++s) {
            mean.push_back(out.cell(
                "fig8.avg.step" + std::to_string(s) + "." + metric.name,
                sum[s] / static_cast<double>(benchmarks.size()),
                metric.unit, metric.paper[s]));
            paper.push_back(orDash(metric.paper[s]));
        }
        out.row(mean);
        out.row(paper);
    }

    out.table("Fig 8 — traffic per step, each Table 3 benchmark at full "
              "size, one batch (`fig8.<benchmark>.step<N>.<counter>`)",
              {"Benchmark", "Counter", "step 0", "step 1", "step 2",
               "step 3", "step 4"});
    const struct
    {
        const char *name;
        const char *unit;
        std::uint64_t Run::*of;
    } counters[] = {{"candidate_rows", "rows", &Run::candidateRows},
                    {"fp32_pages_read", "pages", &Run::fp32PagesRead},
                    {"int4_pages_read", "pages", &Run::int4PagesRead}};
    for (const xclass::BenchmarkSpec &spec : benchmarks) {
        for (const auto &counter : counters) {
            std::vector<std::string> cells = {spec.name, counter.name};
            for (std::size_t s = 0; s < 5; ++s)
                cells.push_back(out.cell(
                    "fig8." + spec.name + ".step" + std::to_string(s)
                        + "." + counter.name,
                    static_cast<double>(ladder.at(spec.name)[s].*counter.of),
                    counter.unit));
            out.row(cells);
        }
    }
}

void
fig9(Report &out)
{
    out.table("Fig 9 — FP MAC circuits at iso-throughput, normalized "
              "to alignment-free (analytic)");
    const circuit::CircuitBlock naive = circuit::naiveFp32Mac();
    const circuit::CircuitBlock skh = circuit::skHynixFp32Mac();
    const circuit::CircuitBlock af = circuit::alignmentFreeFp32Mac();
    out.add("fig9.naive.area_ratio", naive.areaUm2() / af.areaUm2(), "x",
            "1.73");
    out.add("fig9.skhynix.area_ratio", skh.areaUm2() / af.areaUm2(), "x",
            "1.38");
    out.add("fig9.alignment_free.area_ratio", 1.0, "x", "1.0");
    out.add("fig9.naive.power_ratio", naive.powerUw() / af.powerUw(),
            "x", "1.53");
    out.add("fig9.skhynix.power_ratio", skh.powerUw() / af.powerUw(),
            "x", "1.19");
    out.add("fig9.alignment_free.power_ratio", 1.0, "x", "1.0");
    out.add("fig9.naive.alignment_share_pct",
            naive.areaFraction(
                {"exponent_comparator_8b", "mantissa_shifter_24b"})
                * 100.0,
            "%", "37.7");
}

void
fig10(Report &out, double hetero_at_spec_ratio_ms)
{
    out.table("Fig 10 — heterogeneous vs homogeneous data layout, "
              "Transformer-W268K at full size, uniform interleaving, "
              "two batches");
    const double ratios[] = {0.05, 0.10, 0.15, 0.20};
    const char *paper[] = {"1.73", "", "", ""};
    double mean = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        xclass::BenchmarkSpec spec =
            xclass::benchmarkByName("Transformer-W268K");
        // At the spec's own ratio the heterogeneous side is Fig 12's
        // uniform run.
        const bool shared = ratios[i] == spec.candidateRatio;
        spec.candidateRatio = ratios[i];
        // Isolate the layout effect, as the paper does: both sides
        // use uniform interleaving and the alignment-free MAC.
        EcssdOptions options = EcssdOptions::full();
        options.layoutKind = layout::LayoutKind::Uniform;
        options.int4Placement = accel::Int4Placement::Flash;
        const double homo = measure(spec, options, 2).batchMs;
        options.int4Placement = accel::Int4Placement::Dram;
        const double hetero = shared ? hetero_at_spec_ratio_ms
                                     : measure(spec, options, 2).batchMs;
        mean += homo / hetero;
        out.add("fig10.Transformer-W268K.ratio_"
                    + num(ratios[i] * 100.0) + "pct.speedup",
                homo / hetero, "x", paper[i]);
    }
    out.add("fig10.Transformer-W268K.avg_speedup", mean / 4.0, "x",
            "1.43");
}

void
fig11(Report &out)
{
    out.table("Fig 11 — flash channel accesses over 16 batches, "
              "GNMT-E32K at full size, 10% candidate ratio "
              "(`fig11.GNMT-E32K.<layout>.*`)",
              {"Layout", "ch 0", "ch 1", "ch 2", "ch 3", "ch 4", "ch 5",
               "ch 6", "ch 7", "Balance (mean/max)", "Paper"});
    xclass::BenchmarkSpec spec = xclass::benchmarkByName("GNMT-E32K");
    spec.candidateRatio = 0.10;
    xclass::CandidateTrace trace(spec, 7);
    const auto uniform = layout::makeLayout(layout::LayoutKind::Uniform,
                                            spec.categories, 8);
    const auto learning = layout::makeLayout(
        layout::LayoutKind::LearningAdaptive, spec.categories, 8,
        [&trace](std::uint64_t r) { return trace.hotness(r); });

    std::vector<std::uint64_t> uniform_pattern(8, 0);
    std::vector<std::uint64_t> learning_pattern(8, 0);
    for (int batch = 0; batch < 16; ++batch) {
        const std::vector<std::uint64_t> candidates =
            trace.drawCandidates();
        const auto pu = layout::channelAccessPattern(candidates, *uniform);
        const auto pl =
            layout::channelAccessPattern(candidates, *learning);
        for (unsigned c = 0; c < 8; ++c) {
            uniform_pattern[c] += pu[c];
            learning_pattern[c] += pl[c];
        }
    }

    const struct
    {
        const char *name;
        const std::vector<std::uint64_t> &pattern;
        const char *paper;
    } layouts[] = {{"uniform", uniform_pattern, "skewed"},
                   {"learning", learning_pattern, "nearly 1.0"}};
    for (const auto &layout : layouts) {
        const std::string key =
            std::string("fig11.GNMT-E32K.") + layout.name;
        std::vector<std::string> cells = {layout.name};
        for (unsigned c = 0; c < 8; ++c)
            cells.push_back(out.cell(
                key + ".channel" + std::to_string(c) + ".accesses",
                static_cast<double>(layout.pattern[c]), "accesses"));
        cells.push_back(out.cell(key + ".balance",
                                 layout::accessBalance(layout.pattern),
                                 "mean/max", layout.paper));
        cells.push_back(layout.paper);
        out.row(cells);
    }
}

void
fig12(Report &out, const std::map<std::string, Storing> &storing)
{
    out.table("Fig 12 — storing strategies at full size, two batches");
    double vs_sequential = 0.0;
    double vs_uniform = 0.0;
    for (const auto &[name, runs] : storing) {
        out.add("fig12." + name + ".sequential.batch_ms", runs.sequential,
                "ms");
        out.add("fig12." + name + ".uniform.batch_ms", runs.uniform, "ms");
        out.add("fig12." + name + ".learning.batch_ms", runs.learning,
                "ms");
        vs_sequential += runs.sequential / runs.learning;
        vs_uniform += runs.uniform / runs.learning;
    }
    const double count = static_cast<double>(storing.size());
    out.add("fig12.avg.learning_vs_sequential", vs_sequential / count,
            "x", "7.57");
    out.add("fig12.avg.learning_vs_uniform", vs_uniform / count, "x",
            "1.43");
}

void
fig13(Report &out, const Ladder &ladder)
{
    using baselines::Architecture;
    const std::map<Architecture, const char *> paper = {
        {Architecture::CpuN, "49.87"},
        {Architecture::SmartSsdN, "37.83"},
        {Architecture::GenStoreN, "24.51"},
        {Architecture::SmartSsdHN, "19.11"},
        {Architecture::CpuAp, "8.22"},
        {Architecture::SmartSsdAp, "6.28"},
        {Architecture::GenStoreAp, "4.05"},
        {Architecture::SmartSsdHAp, "3.24"},
    };
    const std::vector<xclass::BenchmarkSpec> benchmarks =
        xclass::largeScaleBenchmarks();

    std::vector<std::string> header = {"Architecture"};
    for (const xclass::BenchmarkSpec &spec : benchmarks) {
        header.push_back(spec.name + " ms");
        header.push_back(spec.name + " speedup");
    }
    header.push_back("Mean speedup");
    header.push_back("Paper");
    out.table("Fig 13 — ECSSD against the eight baselines at full "
              "category counts, one batch "
              "(`fig13.<benchmark>.<arch>.{batch_ms,speedup}`, "
              "`fig13.avg.<arch>.speedup`)",
              header);

    // ECSSD's column is Fig 8's step 4.
    std::vector<std::string> ecssd = {"ECSSD"};
    for (const xclass::BenchmarkSpec &spec : benchmarks) {
        ecssd.push_back(out.cell("fig13." + spec.name + ".ECSSD.batch_ms",
                                 ladder.at(spec.name)[4].batchMs, "ms"));
        ecssd.push_back("–");
    }
    ecssd.insert(ecssd.end(), {"–", "–"});
    out.row(ecssd);

    for (const Architecture arch : baselines::allBaselines()) {
        const std::string name = baselines::toString(arch);
        std::vector<std::string> cells = {name};
        double speedup_sum = 0.0;
        for (const xclass::BenchmarkSpec &spec : benchmarks) {
            const double ms = baselines::simulate(arch, spec, 1).batchMs;
            const double speedup = ms / ladder.at(spec.name)[4].batchMs;
            speedup_sum += speedup;
            const std::string key = "fig13." + spec.name + "." + name;
            cells.push_back(out.cell(key + ".batch_ms", ms, "ms"));
            cells.push_back(out.cell(key + ".speedup", speedup, "x"));
        }
        cells.push_back(out.cell(
            "fig13.avg." + name + ".speedup",
            speedup_sum / static_cast<double>(benchmarks.size()), "x",
            paper.at(arch)));
        cells.push_back(paper.at(arch));
        out.row(cells);
    }
}

void
sec42(Report &out)
{
    out.table("Section 4.2 — compute vs channel bandwidth, LSTM-W33K "
              "(analytic)");
    const xclass::BenchmarkSpec spec =
        xclass::benchmarkByName("LSTM-W33K");
    // The rate that consumes the 8 channels' stream without delay.
    const double needed = ssdsim::SsdConfig{}.internalBandwidthGbps()
        * fp32Intensity(spec);
    const double naive = isoAreaGflops(circuit::naiveFp32Mac());
    const double af = circuit::peakGflops(64);
    out.add("sec42.LSTM-W33K.needed_gflops", needed, "GFLOPS", "34.8");
    out.add("sec42.naive_iso_area_gflops", naive, "GFLOPS", "29.2");
    out.add("sec42.skhynix_iso_area_gflops",
            isoAreaGflops(circuit::skHynixFp32Mac()), "GFLOPS");
    out.add("sec42.alignment_free_gflops", af, "GFLOPS", "50");
    out.add("sec42.LSTM-W33K.naive_covers_stream", naive >= needed,
            "bool", "no");
    out.add("sec42.LSTM-W33K.alignment_free_covers_stream",
            af >= needed, "bool", "yes");
}

void
sec42Cfp32(Report &out)
{
    out.table("Section 4.2 — CFP32 accuracy, GNMT-E32K at 2,048 rows, "
              "D = 256, 12 queries");
    const std::string key = "sec42.GNMT-E32K-2048x256.";
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 2048);
    spec.hiddenDim = 256;
    const xclass::SyntheticModel model(spec, 1);
    std::vector<numeric::Cfp32Vector> vectors;
    for (std::size_t r = 0; r < spec.categories; ++r)
        vectors.push_back(
            numeric::Cfp32Vector::preAlign(model.weights().row(r)));
    out.add(key + "lossless_weights_pct",
            numeric::losslessFraction(vectors) * 100.0, "%", ">95%");

    const xclass::ApproximateClassifier classifier(
        model.weights(), spec, 2, &model.basis());
    sim::Rng rng(3);
    double agreement = 0.0;
    double recall = 0.0;
    const int queries = 12;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto fp32 = classifier.predict(
            query, 5, xclass::FilterMode::TopRatio,
            xclass::CandidateClassifier::Datapath::Fp32);
        const auto cfp32 = classifier.predict(
            query, 5, xclass::FilterMode::TopRatio,
            xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree);
        agreement +=
            xclass::recall(fp32.topCategories, cfp32.topCategories);
        recall += xclass::recall(classifier.exact(query, 5).topCategories,
                                 cfp32.topCategories);
    }
    out.add(key + "cfp32_vs_fp32_top5_agreement_pct",
            agreement / queries * 100.0, "%", "100");
    out.add(key + "screened_cfp32_recall5_vs_exact_pct",
            recall / queries * 100.0, "%", "no accuracy drop");
}

void
sec71(Report &out, const Ladder &ladder)
{
    out.table("Section 7.1 — scalability");
    const xclass::BenchmarkSpec s100m =
        xclass::benchmarkByName("XMLCNN-S100M");
    const std::uint64_t gib = 1ULL << 30;
    const char *paper_max[] = {"~50M", "~100M (sweet spot)", "~200M"};
    const unsigned drams[] = {8, 16, 32};
    for (std::size_t i = 0; i < 3; ++i) {
        // Rows whose INT4 screener fills the DRAM to its target.
        const std::uint64_t rows =
            static_cast<std::uint64_t>(
                static_cast<double>(drams[i] * gib) * dramFillTarget)
            / (s100m.shrunkDim() / 2);
        out.add("sec71.max_categories_" + std::to_string(drams[i])
                    + "GB_dram",
                static_cast<double>(rows) / 1e6, "M", paper_max[i]);
    }

    const ssdsim::SsdConfig ssd;
    out.add("sec71.XMLCNN-S100M.int4_gb",
            static_cast<double>(s100m.int4WeightBytes()) / 1e9, "GB",
            "12.8");
    out.add("sec71.XMLCNN-S100M.deploy_s",
            sim::tickToSeconds(estimateDeployTime(s100m, ssd)), "s");

    // A 500M-category layer needs the scale-out path.
    xclass::BenchmarkSpec s500m = s100m;
    s500m.name = "XMLCNN-S500M";
    s500m.categories = 500000000;
    const unsigned devices =
        ScaleOutEcssd::devicesNeeded(s500m, ssd.dramBytes);
    out.add("sec71.XMLCNN-S500M.int4_gb",
            static_cast<double>(s500m.int4WeightBytes()) / 1e9, "GB",
            "64");
    out.add("sec71.XMLCNN-S500M.fp32_tb",
            static_cast<double>(s500m.fp32WeightBytes()) / 1e12, "TB",
            "2");
    out.add("sec71.XMLCNN-S500M.devices", devices, "devices", "5");
    // Devices work in parallel, so the layer's latency is one
    // shard's.  A shard holds as many rows as XMLCNN-S100M and runs
    // exactly like it (spec names seed nothing): Fig 8's step 4.
    if (s500m.categories / devices != s100m.categories)
        sim::fatal("paper_tables: the S500M shard is no longer S100M");
    out.add("sec71.XMLCNN-S500M.shard_batch_ms",
            ladder.at(s100m.name)[4].batchMs, "ms");
}

/** Cost and power constants of the Section 7.2/7.3 comparisons, from
 *  the paper's citations. */
struct EfficiencyConstants
{
    // ECSSD: the paper reports 4.55 GFLOPS/W and 0.018 GFLOPS/$ for
    // the whole 51.2-GFLOPS device.
    double ecssdGflops = 51.2;
    double ecssdTotalPowerW = 51.2 / 4.55;
    double ecssdCostDollar = 51.2 / 0.018;
    // RTX 3090: 350 W TDP, 24 GB memory.
    double gpuPowerW = 350.0;
    double gpuMemoryGb = 24.0;
    // ENMC: 512 GB near-DRAM system, 800 GFLOPS peak.
    double enmcGflops = 800.0;
    double enmcGflopsPerW = 3.805;
    double enmcGflopsPerDollar = 0.002;
};

void
sec72(Report &out)
{
    out.table("Section 7.2 — comparison with GPUs");
    const EfficiencyConstants k;
    const circuit::AcceleratorEstimate accel =
        circuit::estimateAccelerator(circuit::AcceleratorConfig{});
    const double ecssd_w = accel.totalPowerMw * 1e-3 + k.ecssdTotalPowerW;
    out.add("sec72.accelerator_power_mw", accel.totalPowerMw, "mW",
            "52.93");
    out.add("sec72.rtx3090_vs_ecssd_power", k.gpuPowerW / ecssd_w, "x",
            "32");
    // The S100M layer's 400 GB of FP32 weights stay memory-resident
    // only across ceil(400 / 24) GPUs.
    const xclass::BenchmarkSpec spec =
        xclass::benchmarkByName("XMLCNN-S100M");
    const unsigned gpus = static_cast<unsigned>(std::ceil(
        static_cast<double>(spec.fp32WeightBytes()) / 1e9
        / k.gpuMemoryGb));
    out.add("sec72.XMLCNN-S100M.gpus", gpus, "GPUs", "18");
    out.add("sec72.XMLCNN-S100M.multi_gpu_vs_ecssd_power",
            gpus * k.gpuPowerW / ecssd_w, "x", ">=573");
}

void
sec73(Report &out)
{
    const EfficiencyConstants k;
    out.table("Section 7.3 — ECSSD vs ENMC from the paper's constants "
              "(by construction)");
    const double ecssd_per_w = k.ecssdGflops / k.ecssdTotalPowerW;
    const double ecssd_per_dollar = k.ecssdGflops / k.ecssdCostDollar;
    out.add("sec73.ecssd.gflops_per_w", ecssd_per_w, "GFLOPS/W", "4.55");
    out.add("sec73.enmc.gflops_per_w", k.enmcGflopsPerW, "GFLOPS/W",
            "3.805");
    out.add("sec73.energy_efficiency_gain",
            ecssd_per_w / k.enmcGflopsPerW, "x", "1.19");
    out.add("sec73.ecssd.gflops_per_dollar", ecssd_per_dollar,
            "GFLOPS/$", "0.018");
    out.add("sec73.enmc.gflops_per_dollar", k.enmcGflopsPerDollar,
            "GFLOPS/$", "0.002");
    out.add("sec73.cost_efficiency_gain",
            ecssd_per_dollar / k.enmcGflopsPerDollar, "x", "8.87");
    out.add("sec73.enmc_peak_over_ecssd", k.enmcGflops / k.ecssdGflops,
            "x", "~16");

    out.table("Section 7.3 — simulated ENMC, one batch");
    const baselines::EnmcResult fits = baselines::simulateEnmc(
        xclass::benchmarkByName("XMLCNN-S100M"), 1);
    out.add("sec73.XMLCNN-S100M.enmc_batch_ms", fits.batchMs, "ms");
    out.add("sec73.XMLCNN-S100M.enmc_gflops_per_w", fits.gflopsPerWatt,
            "GFLOPS/W", "3.805");
    // Past its 512 GB the model spills to storage.
    xclass::BenchmarkSpec s200m = xclass::benchmarkByName("XMLCNN-S100M");
    s200m.categories = 200000000;
    const baselines::EnmcResult spills = baselines::simulateEnmc(s200m, 1);
    out.add("sec73.XMLCNN-S200M.enmc_fits_dram", spills.fitsInDram,
            "bool", "no (degrades)");
    out.add("sec73.XMLCNN-S200M.enmc_batch_ms", spills.batchMs, "ms");
}

/** XMLCNN-S10M cut to 65,536 rows: the ablation and energy shape. */
xclass::BenchmarkSpec
scaledS10M()
{
    return xclass::scaledDown(xclass::benchmarkByName("XMLCNN-S10M"),
                              65536);
}

/**
 * Design-choice sweeps around the full design on scaledS10M(), two
 * batches per point.  @p base is the full design's run, which is every
 * sweep's default point.
 */
void
ablation(Report &out, const accel::RunResult &base)
{
    out.table("Ablations beyond the paper — XMLCNN-S10M at 65,536 "
              "rows, full design, two batches");
    const std::string key = "ablation.XMLCNN-S10M-65536.";
    const xclass::BenchmarkSpec spec = scaledS10M();
    const EcssdOptions full = EcssdOptions::full();
    const auto run = [&base](const xclass::BenchmarkSpec &s,
                             const EcssdOptions &options,
                             bool is_default) {
        if (is_default)
            return base;
        EcssdSystem system(s, options);
        return system.runInference(2);
    };

    for (const std::uint64_t kib : {256, 1024, 4096, 16384}) {
        EcssdOptions options = full;
        options.ssd.dataBufferBytes = kib * 1024;
        const accel::RunResult r = run(
            spec, options,
            options.ssd.dataBufferBytes == full.ssd.dataBufferBytes);
        out.add(key + "buffer_" + std::to_string(kib) + "KiB.util_pct",
                r.channelUtilization * 100.0, "%");
    }
    for (const std::uint32_t batch : {1, 4, 8, 16, 32}) {
        xclass::BenchmarkSpec batched = spec;
        batched.batchSize = batch;
        const accel::RunResult r =
            run(batched, full, batch == spec.batchSize);
        const std::string point = key + "batch_" + std::to_string(batch);
        out.add(point + ".gflops", r.effectiveGflops, "GFLOPS");
        out.add(point + ".util_pct", r.channelUtilization * 100.0, "%");
    }
    unsigned previous = 0;
    double previous_ms = 0.0;
    for (const unsigned channels : {4u, 8u, 16u}) {
        EcssdOptions options = full;
        options.ssd.channels = channels;
        const accel::RunResult r =
            run(spec, options, channels == full.ssd.channels);
        const std::string point =
            key + "channels_" + std::to_string(channels);
        out.add(point + ".batch_ms", r.meanBatchMs(), "ms");
        if (previous != 0)
            out.add(point + ".speedup_vs_"
                        + std::to_string(previous),
                    previous_ms / r.meanBatchMs(), "x");
        previous = channels;
        previous_ms = r.meanBatchMs();
    }
    for (const unsigned dies : {4u, 8u, 16u, 32u}) {
        EcssdOptions options = full;
        options.ssd.diesPerChannel = dies;
        const accel::RunResult r =
            run(spec, options, dies == full.ssd.diesPerChannel);
        out.add(key + "dies_" + std::to_string(dies) + ".util_pct",
                r.channelUtilization * 100.0, "%");
    }
    for (const bool enabled : {false, true}) {
        EcssdOptions options = full;
        options.ssd.multiPlaneRead = enabled;
        const accel::RunResult r =
            run(spec, options, enabled == full.ssd.multiPlaneRead);
        out.add(key + "multi_plane_" + (enabled ? "on" : "off")
                    + ".util_pct",
                r.channelUtilization * 100.0, "%");
    }
    for (const accel::WeightPrecision precision :
         {accel::WeightPrecision::Cfp32, accel::WeightPrecision::Cfp16}) {
        EcssdOptions options = full;
        options.weightPrecision = precision;
        const accel::RunResult r =
            run(spec, options, precision == full.weightPrecision);
        out.add(key
                    + (precision == accel::WeightPrecision::Cfp16
                           ? "cfp16"
                           : "cfp32")
                    + ".batch_ms",
                r.meanBatchMs(), "ms");
    }
    for (const double noise : {0.0, 0.25, 1.0, 3.0}) {
        EcssdOptions options = full;
        options.predictorNoise = noise;
        const accel::RunResult r =
            run(spec, options, noise == full.predictorNoise);
        out.add(key + "predictor_noise_" + num(noise) + ".util_pct",
                r.channelUtilization * 100.0, "%");
    }
    EcssdOptions uniform = full;
    uniform.layoutKind = layout::LayoutKind::Uniform;
    for (const double fraction : {0.0, 0.4, 0.8}) {
        xclass::BenchmarkSpec sticky = spec;
        sticky.hotSetFraction = fraction;
        const accel::RunResult learn =
            run(sticky, full, fraction == spec.hotSetFraction);
        const accel::RunResult uni = run(sticky, uniform, false);
        out.add(key + "hot_set_" + num(fraction)
                    + ".learning_vs_uniform",
                uni.meanBatchMs() / learn.meanBatchMs(), "x");
    }
}

/**
 * Energy per batch of the Fig 8 end points on scaledS10M(), two
 * batches.  @p full_system ran @p full_run last.
 */
void
energy(Report &out, const EcssdSystem &full_system,
       const accel::RunResult &full_run)
{
    out.table("Energy per inference batch — XMLCNN-S10M at 65,536 "
              "rows, two batches");
    const auto add = [&out](const std::string &point,
                            const EcssdSystem &system,
                            const accel::RunResult &run) {
        const circuit::EnergyBreakdown e = system.estimateRunEnergy(run);
        const std::string key = "energy.XMLCNN-S10M-65536." + point;
        out.add(key + ".total_mj_per_batch",
                e.totalUj() / static_cast<double>(run.batches.size())
                    / 1000.0,
                "mJ");
        out.add(key + ".flash_share_pct", e.flashUj / e.totalUj() * 100.0,
                "%");
        out.add(key + ".background_share_pct",
                e.backgroundUj / e.totalUj() * 100.0, "%");
        std::uint64_t flops = 0;
        for (const accel::BatchTiming &batch : run.batches)
            flops += batch.fp32Flops;
        out.add(key + ".device_gflops_per_w",
                e.gflopsPerWatt(flops, run.totalTime), "GFLOPS/W");
    };
    const auto add_fresh = [&add](const std::string &point,
                                  const EcssdOptions &options) {
        EcssdSystem system(scaledS10M(), options);
        add(point, system, system.runInference(2));
    };
    add_fresh("naive_sequential_homogeneous",
              EcssdOptions::startingBaseline());
    add("full", full_system, full_run);
    EcssdOptions dense = EcssdOptions::full();
    dense.screening = false;
    add_fresh("full_screening_off", dense);
}

void
serving(Report &out)
{
    out.table("Open-loop serving — latency vs Poisson load, XMLCNN-S10M "
              "at 4,096 rows, D = 256, 256 requests per load");
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 4096);
    spec.hiddenDim = 256;
    const xclass::SyntheticModel model(spec, 61);
    sim::Rng rng(62);
    std::vector<std::vector<float>> pool;
    for (int q = 0; q < 16; ++q)
        pool.push_back(model.sampleQuery(rng));
    for (const double rps : {500.0, 2000.0, 8000.0, 16000.0}) {
        InferenceServer server(model.weights(), spec,
                               EcssdOptions::full(), &model.basis());
        sim::TrafficConfig traffic;
        traffic.process = sim::ArrivalProcess::Poisson;
        traffic.ratePerSecond = rps;
        traffic.goldFraction = 1.0;
        sim::TrafficEngine engine(traffic);
        server.runTraffic(engine, 256, pool, 5);
        const std::string key =
            "serving.XMLCNN-S10M-4096x256." + num(rps) + "rps";
        out.add(key + ".p50_ms", server.latencyPercentiles().p50(), "ms");
        out.add(key + ".p99_ms", server.latencyPercentiles().p99(), "ms");
    }
}

void
rowCache(Report &out)
{
    out.table("Hot-row cache — GNMT-E32K at 16,384 rows, full design plus "
              "an 8 MiB SSD-DRAM row cache, two batches");
    const std::string key = "cache.GNMT-E32K-16384.";
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 16384);
    EcssdOptions options = EcssdOptions::full();
    options.cache.capacityBytes = 8ULL << 20;
    EcssdSystem system(spec, options);
    const accel::RunResult result = system.runInference(2);

    sim::Tick hit_time = 0;
    sim::Tick miss_time = 0;
    std::uint64_t fp32_pages = 0;
    for (const accel::BatchTiming &batch : result.batches) {
        hit_time += batch.cacheHitTime;
        miss_time += batch.cacheMissTime;
        fp32_pages += batch.fp32PagesRead;
    }
    out.add(key + "hit_fetch_ms", sim::tickToMs(hit_time), "ms");
    out.add(key + "miss_fetch_ms", sim::tickToMs(miss_time), "ms");
    out.add(key + "hit_rows", static_cast<double>(result.cacheHitRows),
            "rows");
    out.add(key + "miss_rows", static_cast<double>(result.cacheMissRows),
            "rows");
    out.add(key + "fp32_pages_read", static_cast<double>(fp32_pages),
            "pages");
    out.add(key + "hit_rate", result.cacheHitRate(), "fraction");
}

void
closedLoopServing(Report &out)
{
    out.table("Closed-loop serving — GNMT-E32K at 2,048 rows, 24 requests "
              "queued up front, batches of up to 5");
    const std::string key = "serving.GNMT-E32K-2048.";
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 2048);
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model(spec, options.seed);
    InferenceServer server(model.weights(), spec, options);
    sim::Rng rng(options.seed);
    for (unsigned r = 0; r < 24; ++r)
        server.enqueue(model.sampleQuery(rng));
    server.processAll(5);

    out.add(key + "mean_ms", server.latencyMs().mean(), "ms");
    out.add(key + "p50_ms", server.latencyPercentiles().p50(), "ms");
    out.add(key + "p99_ms", server.latencyPercentiles().p99(), "ms");
    out.add(key + "device_time_ms", sim::tickToMs(server.deviceTime()),
            "ms");
    out.add(key + "ok_responses",
            static_cast<double>(server.serverStats().okResponses),
            "requests");
    out.add(key + "accepted_requests",
            static_cast<double>(server.serverStats().acceptedRequests),
            "requests");
}

void
hotSwap(Report &out)
{
    // Half the load enqueues, a staged redeploy to the same weights
    // begins, and the rest serves through the flip.  A staging budget
    // that stops yielding to foreground batches shows as a p99 move.
    out.table("Hot swap — GNMT-E32K at 2,048 rows, a staged redeploy "
              "begun after 12 of 24 closed-loop requests");
    const std::string key = "redeploy.GNMT-E32K-2048.";
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 2048);
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model(spec, options.seed);
    InferenceServer server(model.weights(), spec, options);
    sim::Rng rng(options.seed + 1);
    for (unsigned r = 0; r < 12; ++r)
        server.enqueue(model.sampleQuery(rng));
    if (server.beginRedeploy(model.weights(), spec) != Status::Ok)
        sim::fatal("paper_tables: the hot swap did not begin");
    for (unsigned r = 0; r < 12; ++r)
        server.enqueue(model.sampleQuery(rng));
    server.processAll(5);

    const RedeployStatus status = server.redeployStatus();
    const ServerStats &stats = server.serverStats();
    out.add(key + "serving_p99_ms", server.latencyPercentiles().p99(),
            "ms");
    out.add(key + "staging_ms", sim::tickToMs(status.stagingTime), "ms");
    out.add(key + "committed",
            status.phase == RedeployPhase::Committed, "bool");
    out.add(key + "rolled_back",
            status.phase == RedeployPhase::RolledBack, "bool");
    out.add(key + "staged_bytes", static_cast<double>(status.stagedBytes),
            "bytes");
    out.add(key + "deploy_epoch", static_cast<double>(server.deployEpoch()),
            "epoch");
    out.add(key + "shed_requests", static_cast<double>(stats.shedRequests),
            "requests");
    out.add(key + "ok_responses", static_cast<double>(stats.okResponses),
            "requests");
}

void
overload(Report &out)
{
    // A 100k-arrival bursty (MMPP-2) trace at ~3x the device's service
    // rate, served under the whole overload-control stack: queue-delay
    // admission, class-aware shedding, the batch-wait window and the
    // brownout ladder.  An admission or ladder regression shows as a
    // p999 blowup or a shift in the shed mix.
    out.table("Open-loop overload — GNMT-E32K at 256 rows, D = 64, batch "
              "8, 100,000 bursty arrivals, 25% Gold");
    const std::string key = "overload.GNMT-E32K-256x64.";
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 256);
    spec.hiddenDim = 64;
    spec.batchSize = 8;
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model(spec, options.seed);

    ServerConfig config;
    config.admissionTargetDelay = sim::microseconds(500.0);
    config.brownout.enterDelay = sim::microseconds(400.0);
    config.brownout.exitDelay = sim::microseconds(200.0);
    config.brownout.recoveryGuard = sim::microseconds(100.0);
    config.batchMaxWait = sim::microseconds(50.0);
    InferenceServer server(model.weights(), spec, options,
                           &model.basis(), config);

    std::vector<std::vector<float>> queries;
    sim::Rng qrng(options.seed);
    for (int q = 0; q < 32; ++q)
        queries.push_back(model.sampleQuery(qrng));

    sim::TrafficConfig traffic;
    traffic.process = sim::ArrivalProcess::BurstySpike;
    traffic.ratePerSecond = 60000.0;
    traffic.burstRateMultiplier = 6.0;
    traffic.goldFraction = 0.25;
    traffic.seed = 17;
    sim::TrafficEngine engine(traffic);
    if (server.runTraffic(engine, 100000, queries, 5).size() != 100000)
        sim::fatal("paper_tables: the overload run lost terminals");

    const ServerStats &stats = server.serverStats();
    out.add(key + "p99_ms", server.latencyPercentiles().p99(), "ms");
    out.add(key + "p999_ms", server.latencyPercentiles().quantile(0.999),
            "ms");
    out.add(key + "device_time_ms", sim::tickToMs(server.deviceTime()),
            "ms");
    out.add(key + "brownout_full_dwell_ms",
            sim::tickToMs(server.brownoutDwell(BrownoutLevel::Full)),
            "ms");
    out.add(key + "brownout_degraded_dwell_ms",
            sim::tickToMs(
                server.brownoutDwell(BrownoutLevel::ReducedCandidates))
                + sim::tickToMs(
                    server.brownoutDwell(BrownoutLevel::ScreenerOnly))
                + sim::tickToMs(server.brownoutDwell(BrownoutLevel::Shed)),
            "ms");
    // Goodput: served (non-shed) answers per second of device time.
    out.add(key + "goodput_rps",
            static_cast<double>(stats.okResponses
                                + stats.degradedResponses)
                / sim::tickToSeconds(server.deviceTime()),
            "requests/s");
    const struct
    {
        const char *name;
        std::uint64_t value;
        const char *unit;
    } counts[] = {
        {"shed_gold", stats.shedGold, "requests"},
        {"shed_best_effort", stats.shedBestEffort, "requests"},
        {"admission_sheds", stats.admissionSheds, "requests"},
        {"brownout_sheds", stats.brownoutSheds, "requests"},
        {"brownout_transitions", stats.brownoutTransitions, "count"},
        {"served_full", stats.servedFull, "requests"},
        {"served_reduced_candidates", stats.servedReducedCandidates,
         "requests"},
        {"served_screener_only", stats.servedScreenerOnly, "requests"},
        {"queue_depth_hwm", stats.queueDepthHwm, "requests"},
    };
    for (const auto &count : counts)
        out.add(key + count.name, static_cast<double>(count.value),
                count.unit);
}

void
multiTenant(Report &out)
{
    // Tenant a serves a calm stream under a p99 SLO while tenant b
    // floods the shared device far past capacity.  b must shed and
    // brown out its own traffic, and a's p99 on the shared device must
    // stay within 15% of its solo p99.
    out.table("Two tenants, one device — GNMT-E32K at 1,024 rows, D = "
              "128, batch 4: tenant a 400 Poisson arrivals at 2,000/s, "
              "tenant b 4,000 at 500,000/s");
    const std::string key = "tenant.GNMT-E32K-1024x128.";
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    spec.batchSize = 4;
    const EcssdOptions options = EcssdOptions::full();
    xclass::SyntheticModel model_a(spec, options.seed);
    xclass::SyntheticModel model_b(spec, options.seed + 1);

    TenantConfig tenant_a;
    tenant_a.name = "a";
    tenant_a.dramBytes = 64ULL << 20;
    tenant_a.cacheQuotaBytes = 4ULL << 20;
    tenant_a.p99TargetMs = 5.0;
    TenantConfig tenant_b = tenant_a;
    tenant_b.name = "b";
    tenant_b.p99TargetMs = 1.0;

    std::vector<std::vector<float>> queries;
    sim::Rng qrng(options.seed);
    for (int q = 0; q < 16; ++q)
        queries.push_back(model_a.sampleQuery(qrng));

    sim::TrafficConfig calm;
    calm.ratePerSecond = 2000.0;
    calm.seed = 21;
    const std::uint64_t calm_count = 400;
    sim::TrafficConfig flood;
    flood.ratePerSecond = 500000.0;
    flood.seed = 22;

    // Solo baseline: a alone on the device.
    double solo_p99 = 0.0;
    {
        MultiTenantServer device(options);
        const TenantHandle a =
            device.addTenant(tenant_a, model_a.weights(), spec,
                             ServerConfig{}, &model_a.basis());
        device.run({{a, calm, calm_count}}, queries, 5);
        solo_p99 = device.server(a)->latencyPercentiles().p99();
    }

    // Shared device: the same a stream next to b's flood.
    MultiTenantServer device(options);
    const TenantHandle a =
        device.addTenant(tenant_a, model_a.weights(), spec,
                         ServerConfig{}, &model_a.basis());
    const TenantHandle b =
        device.addTenant(tenant_b, model_b.weights(), spec,
                         ServerConfig{}, &model_b.basis());
    device.run({{a, calm, calm_count}, {b, flood, 4000}}, queries, 5);

    const ServerStats &stats_a = device.server(a)->serverStats();
    const ServerStats &stats_b = device.server(b)->serverStats();
    const double shared_p99 =
        device.server(a)->latencyPercentiles().p99();
    if (stats_b.shedRequests == 0 || stats_b.brownoutTransitions == 0)
        sim::fatal("paper_tables: the flooded tenant never degraded "
                   "itself");
    if (stats_a.shedRequests != 0)
        sim::fatal("paper_tables: the calm tenant shed under its "
                   "neighbour's flood");
    if (shared_p99 > solo_p99 * 1.15)
        sim::fatal("paper_tables: the noisy neighbour leaked into the "
                   "calm tenant's p99 (solo ", solo_p99, " ms, shared ",
                   shared_p99, " ms)");

    out.add(key + "a_solo_p99_ms", solo_p99, "ms");
    out.add(key + "a_shared_p99_ms", shared_p99, "ms");
    out.add(key + "b_shared_p99_ms",
            device.server(b)->latencyPercentiles().p99(), "ms");
    out.add(key + "device_time_ms", sim::tickToMs(device.deviceTime()),
            "ms");
    out.add(key + "count", static_cast<double>(device.tenantCount()),
            "tenants");
    out.add(key + "a_sheds", static_cast<double>(stats_a.shedRequests),
            "requests");
    out.add(key + "b_sheds", static_cast<double>(stats_b.shedRequests),
            "requests");
    out.add(key + "b_brownout_transitions",
            static_cast<double>(stats_b.brownoutTransitions), "count");
    out.add(key + "b_admission_sheds",
            static_cast<double>(stats_b.admissionSheds), "requests");
}

void
streamingDeploy(Report &out)
{
    // 200k synthetic rows under a 2 MiB transient-host ceiling: the
    // hotness vector alone would not fit, so the deploy sorts
    // externally through the simulated flash.
    out.table("Streaming deploy — 200,000 synthetic rows, D = 32, 16 "
              "INT4 dims, 2 MiB host budget");
    const std::string key = "deploy.synthetic-200000x32.";
    const SyntheticRowSource source(200000, 32, 1);
    const ssdsim::SsdConfig ssd;
    StreamingDeployConfig config;
    config.hostBudgetBytes = 2ULL << 20;
    config.rowBytes = 32 * sizeof(float);
    const StreamingDeployResult result =
        streamingWeightDeploy(source, 16, ssd.channels, ssd, config);
    if (result.hostPeakBytes > config.hostBudgetBytes)
        sim::fatal("paper_tables: the streaming deploy exceeded its "
                   "budget");
    if (result.runsSpilled < 2)
        sim::fatal("paper_tables: the streaming deploy did not spill");
    out.add(key + "streaming_ms", sim::tickToMs(result.deployTime), "ms");
    out.add(key + "host_peak_bytes",
            static_cast<double>(result.hostPeakBytes), "bytes");
    out.add(key + "runs_spilled", static_cast<double>(result.runsSpilled),
            "runs");
    out.add(key + "spill_pages_written",
            static_cast<double>(result.spillPagesWritten), "pages");
    out.add(key + "rows_placed", static_cast<double>(result.rowsPlaced),
            "rows");
}

/** Replays the same candidate rows every batch (a drifted hot set). */
class FixedSource : public accel::CandidateSource
{
  public:
    FixedSource(std::uint64_t rows, std::vector<std::uint64_t> batch)
        : rows_(rows), batch_(std::move(batch))
    {
    }

    std::uint64_t rows() const override { return rows_; }
    std::vector<std::uint64_t> nextBatch() override { return batch_; }

  private:
    std::uint64_t rows_;
    std::vector<std::uint64_t> batch_;
};

void
relayout(Report &out)
{
    // Traffic concentrated on one channel's page groups opens a
    // channel-utilization gap; one budgeted migration pass must recover
    // at least 80% of it.
    out.table("Background re-layout — GNMT-E32K at 4,096 rows, D = 64, "
              "an 8 MiB row cache, four batches on channel 0's groups "
              "then one pass");
    const std::string key = "relayout.GNMT-E32K-4096x64.";
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 4096);
    spec.hiddenDim = 64;
    EcssdOptions options = EcssdOptions::full();
    options.cache.capacityBytes = 8ULL << 20;
    options.relayout.enabled = true;
    options.relayout.divergenceThreshold = 0.2;
    options.relayout.pageBudget = 4096;
    EcssdSystem system(spec, options);

    const std::uint64_t rows_per_page = std::max<std::uint64_t>(
        1, options.ssd.pageBytes / spec.rowBytes());
    std::vector<std::uint64_t> batch;
    for (std::uint64_t g = 0;
         g < system.strategy().rows() && batch.size() < 32; ++g)
        if (system.strategy().channelOf(g) == 0)
            batch.push_back(g * rows_per_page);

    FixedSource drift(spec.categories, batch);
    const accel::RunResult drifted = system.runInferenceWith(drift, 4);
    const sim::Tick end = system.relayoutStep(drifted.totalTime);
    const RelayoutStats &stats = system.relayoutStats();

    const double before = 1.0 - stats.lastDivergence;
    const double recovered_gap = 1.0 - before > 0.0
        ? (stats.recoveredBalance - before) / (1.0 - before)
        : 1.0;
    if (recovered_gap < 0.8)
        sim::fatal("paper_tables: the re-layout recovered only ",
                   recovered_gap * 100.0,
                   "% of the drifted balance gap");

    out.add(key + "pass_ms", sim::tickToMs(end - drifted.totalTime),
            "ms");
    out.add(key + "recovered_balance", stats.recoveredBalance,
            "mean/max");
    out.add(key + "rows_migrated", static_cast<double>(stats.rowsMigrated),
            "rows");
    out.add(key + "pages_moved", static_cast<double>(stats.pagesMoved),
            "pages");
    out.add(key + "drift_divergence", stats.lastDivergence, "fraction");
}

int
run(int argc, char **argv)
{
    std::string out_dir = ".";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_dir = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out DIR]\n", argv[0]);
            return 2;
        }
    }
    // Opened before the first section, so an unwritable DIR fails in
    // a moment instead of after the whole run.
    const std::string json_path = out_dir + "/BENCH_paper.json";
    std::ofstream json_out(json_path);
    if (!json_out)
        sim::fatal("cannot open '", json_path, "' for writing");

    const Ladder ladder = runLadder();
    const std::map<std::string, Storing> storing = runStoring();
    Report out;
    table4(out);
    fig1(out, ladder);
    fig8(out, ladder);
    fig9(out);
    fig10(out, storing.at("Transformer-W268K").uniform);
    fig11(out);
    fig12(out, storing);
    fig13(out, ladder);
    sec42(out);
    sec42Cfp32(out);
    sec71(out, ladder);
    sec72(out);
    sec73(out);
    {
        EcssdSystem system(scaledS10M(), EcssdOptions::full());
        const accel::RunResult base = system.runInference(2);
        ablation(out, base);
        energy(out, system, base);
    }
    serving(out);
    rowCache(out);
    closedLoopServing(out);
    hotSwap(out);
    overload(out);
    multiTenant(out);
    streamingDeploy(out);
    relayout(out);

    out.writeJson(json_out, json_path);
    out.printMarkdown();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const sim::FatalError &) {
        // A bad DIR or a broken section invariant: fatal() already
        // printed the reason.
        return 2;
    }
}
