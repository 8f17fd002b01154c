/**
 * @file
 * Composable circuit blocks for the three FP MAC variants and the
 * INT4 MAC, plus array-level sizing helpers (iso-throughput and
 * iso-area comparisons for Fig 9 and Section 4.2).
 */

#ifndef ECSSD_CIRCUIT_MAC_CIRCUIT_HH
#define ECSSD_CIRCUIT_MAC_CIRCUIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/components.hh"

namespace ecssd
{
namespace circuit
{

/** One sub-block instance inside a circuit block. */
struct BlockEntry
{
    ComponentCost component;
    /** Instance count; fractional counts model amortized sharing. */
    double count = 1.0;

    double areaUm2() const { return component.areaUm2 * count; }
    double powerUw() const { return component.powerUw * count; }
};

/** A named circuit block composed of sub-blocks. */
class CircuitBlock
{
  public:
    explicit CircuitBlock(std::string name) : name_(std::move(name)) {}

    /** Add @p count instances of @p component. */
    CircuitBlock &add(const ComponentCost &component,
                      double count = 1.0);

    const std::string &name() const { return name_; }
    const std::vector<BlockEntry> &entries() const { return entries_; }

    double areaUm2() const;
    double powerUw() const;
    double areaMm2() const { return areaUm2() * 1e-6; }
    double powerMw() const { return powerUw() * 1e-3; }

    /** Area share of entries whose component name matches any of
     *  @p component_names. */
    double areaFraction(
        const std::vector<std::string> &component_names) const;

  private:
    std::string name_;
    std::vector<BlockEntry> entries_;
};

/** One conventional FP32 MAC (multiplier + aligned FP adder slice). */
CircuitBlock naiveFp32Mac();

/**
 * One SK Hynix AiM-style MAC: post-multiplication alignment halves
 * the alignment network and turns the tree adds into integer adds.
 */
CircuitBlock skHynixFp32Mac();

/** One ECSSD alignment-free MAC (31-bit multiplier + accumulator). */
CircuitBlock alignmentFreeFp32Mac();

/** One INT4 screener MAC. */
CircuitBlock int4Mac();

/**
 * An array of @p count MAC blocks.
 *
 * @param mac The per-MAC block.
 * @param count Number of MAC instances.
 */
CircuitBlock macArray(const CircuitBlock &mac, unsigned count);

/** Peak GFLOPS of @p mac_count MACs at @p frequency_hz (2 ops/MAC). */
double peakGflops(unsigned mac_count,
                  double frequency_hz = acceleratorFrequencyHz);

/** MAC count needed to reach @p gflops at @p frequency_hz. */
unsigned macsForGflops(double gflops,
                       double frequency_hz = acceleratorFrequencyHz);

/**
 * Largest MAC count of the given variant that fits in @p budget_mm2.
 */
unsigned macsInArea(const CircuitBlock &mac, double budget_mm2);

} // namespace circuit
} // namespace ecssd

#endif // ECSSD_CIRCUIT_MAC_CIRCUIT_HH
