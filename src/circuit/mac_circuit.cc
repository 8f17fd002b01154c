#include "mac_circuit.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace ecssd
{
namespace circuit
{

CircuitBlock &
CircuitBlock::add(const ComponentCost &component, double count)
{
    ECSSD_ASSERT(count > 0.0, "component count must be positive");
    entries_.push_back(BlockEntry{component, count});
    return *this;
}

double
CircuitBlock::areaUm2() const
{
    double total = 0.0;
    for (const BlockEntry &entry : entries_)
        total += entry.areaUm2();
    return total;
}

double
CircuitBlock::powerUw() const
{
    double total = 0.0;
    for (const BlockEntry &entry : entries_)
        total += entry.powerUw();
    return total;
}

double
CircuitBlock::areaFraction(
    const std::vector<std::string> &component_names) const
{
    const double total = areaUm2();
    if (total == 0.0)
        return 0.0;
    double matched = 0.0;
    for (const BlockEntry &entry : entries_) {
        const bool match =
            std::find(component_names.begin(), component_names.end(),
                      entry.component.name)
            != component_names.end();
        if (match)
            matched += entry.areaUm2();
    }
    return matched / total;
}

CircuitBlock
naiveFp32Mac()
{
    // Multiplier slice plus one adder slice of the reduction tree.
    // The adder aligns (compare + shift), adds, and normalizes on
    // every accumulation.
    CircuitBlock mac("naive_fp32_mac");
    mac.add(mantissaMultiplier24())
        .add(exponentAdder())
        .add(exponentComparator())
        .add(mantissaShifter())
        .add(mantissaAdderFp())
        .add(normalizer());
    return mac;
}

CircuitBlock
skHynixFp32Mac()
{
    // Products are aligned once after multiplication, so the
    // alignment network (comparator + shifter) is halved and the tree
    // adders become plain integer adders; normalization still happens
    // per result.
    CircuitBlock mac("skhynix_fp32_mac");
    mac.add(mantissaMultiplier24())
        .add(exponentAdder())
        .add(exponentComparator(), 0.5)
        .add(mantissaShifter(), 0.5)
        .add(integerAdder48())
        .add(normalizer());
    return mac;
}

CircuitBlock
alignmentFreeFp32Mac()
{
    // Host pre-alignment removes every alignment component; the
    // datapath is a wider multiplier plus a wide integer accumulator.
    // The single final normalizer is shared across the array and
    // accounted for at array level (negligible per MAC).
    CircuitBlock mac("alignment_free_fp32_mac");
    mac.add(mantissaMultiplier31()).add(wideAccumulator());
    return mac;
}

CircuitBlock
int4Mac()
{
    CircuitBlock mac("int4_mac");
    mac.add(int4Multiplier()).add(int4Accumulator());
    return mac;
}

CircuitBlock
macArray(const CircuitBlock &mac, unsigned count)
{
    CircuitBlock array(mac.name() + "_array");
    for (const BlockEntry &entry : mac.entries())
        array.add(entry.component, entry.count * count);
    return array;
}

double
peakGflops(unsigned mac_count, double frequency_hz)
{
    // One multiply + one add per MAC per cycle.
    return 2.0 * static_cast<double>(mac_count) * frequency_hz / 1e9;
}

unsigned
macsForGflops(double gflops, double frequency_hz)
{
    const double macs = gflops * 1e9 / (2.0 * frequency_hz);
    return static_cast<unsigned>(std::ceil(macs));
}

unsigned
macsInArea(const CircuitBlock &mac, double budget_mm2)
{
    const double per_mac = mac.areaMm2();
    ECSSD_ASSERT(per_mac > 0.0, "MAC block has zero area");
    return static_cast<unsigned>(budget_mm2 / per_mac);
}

} // namespace circuit
} // namespace ecssd
