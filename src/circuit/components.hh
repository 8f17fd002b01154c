/**
 * @file
 * Per-component area/power constants of the 28 nm standard-cell
 * library model.
 *
 * The paper synthesizes RTL with Design Compiler; we replace that flow
 * with an analytical model: each MAC variant is composed from the
 * sub-blocks below, and the constants are calibrated once so that the
 * composed totals land on the paper's published numbers (Table 4,
 * Fig 9, Section 3.3/4.2):
 *
 *  - 64 alignment-free FP32 MACs = 0.139 mm2 / 33.87 mW,
 *  - naive : alignment-free iso-throughput area ratio  = 1.73,
 *  - SK Hynix : alignment-free area ratio              = 1.38,
 *  - power ratios 1.53 and 1.19,
 *  - alignment logic share of the naive MAC            = 37.7%,
 *  - 256 INT4 MACs = 0.044 mm2 / 19.04 mW,
 *  - comparator 0.0004 mm2 / 0.016 mW, scheduler 0.0002 mm2 / 4 uW.
 *
 * Because the totals are *composed* from sub-blocks, structural
 * what-ifs (e.g., "remove the shifters", "halve the alignment
 * network", "widen the multiplier from 24 to 31 bits") change the
 * result the way a synthesis run would, rather than via hard-coded
 * end-to-end ratios.
 */

#ifndef ECSSD_CIRCUIT_COMPONENTS_HH
#define ECSSD_CIRCUIT_COMPONENTS_HH

#include <string>

namespace ecssd
{
namespace circuit
{

/** Area (um^2) and power (uW at 400 MHz / 0.9 V) of one sub-block. */
struct ComponentCost
{
    std::string name;
    double areaUm2 = 0.0;
    double powerUw = 0.0;
};

/** 24x24-bit mantissa multiplier of a conventional FP32 multiplier. */
inline ComponentCost
mantissaMultiplier24()
{
    return {"mantissa_mult_24b", 1050.0, 270.0};
}

/**
 * 31x31-bit mantissa multiplier of the alignment-free datapath.
 * Multiplier area grows quadratically with operand width:
 * 1050 * (31/24)^2 = 1752.
 */
inline ComponentCost
mantissaMultiplier31()
{
    return {"mantissa_mult_31b", 1752.0, 450.0};
}

/** 8-bit exponent adder of an FP multiplier. */
inline ComponentCost
exponentAdder()
{
    return {"exponent_adder_8b", 130.0, 14.0};
}

/** 8-bit exponent comparator of an FP adder's alignment stage. */
inline ComponentCost
exponentComparator()
{
    return {"exponent_comparator_8b", 287.0, 36.0};
}

/** 24-bit barrel shifter of an FP adder's alignment stage. */
inline ComponentCost
mantissaShifter()
{
    return {"mantissa_shifter_24b", 1130.0, 240.0};
}

/**
 * FP mantissa adder including leading-zero anticipation; larger than
 * a plain integer adder of the same width.
 */
inline ComponentCost
mantissaAdderFp()
{
    return {"mantissa_adder_fp", 510.0, 120.0};
}

/** Plain 48-bit two's-complement integer adder. */
inline ComponentCost
integerAdder48()
{
    return {"integer_adder_48b", 460.0, 78.0};
}

/** Post-addition normalizer/rounder of an FP adder. */
inline ComponentCost
normalizer()
{
    return {"normalizer_rounder", 650.0, 130.0};
}

/** Wide (72-bit) carry-save accumulator of the alignment-free MAC. */
inline ComponentCost
wideAccumulator()
{
    return {"wide_accumulator_72b", 420.0, 79.0};
}

/** 4x4-bit multiplier of the INT4 screener MAC. */
inline ComponentCost
int4Multiplier()
{
    return {"int4_multiplier", 120.0, 60.0};
}

/** 12-bit accumulator of the INT4 screener MAC. */
inline ComponentCost
int4Accumulator()
{
    return {"int4_accumulator_12b", 51.9, 14.4};
}

/** The threshold comparator block (whole-block cost from Table 4). */
inline ComponentCost
thresholdComparator()
{
    return {"threshold_comparator", 400.0, 16.0};
}

/** The accelerator scheduler block (whole-block cost from Table 4). */
inline ComponentCost
schedulerBlock()
{
    return {"scheduler", 200.0, 4.0};
}

/**
 * The lightweight-insertion area budget: one ARM Cortex-R5 at 28 nm
 * (Section 3.3's area-budget guideline), in mm^2.
 */
constexpr double areaBudgetMm2 = 0.21;

/** The accelerator clock frequency (Table 2). */
constexpr double acceleratorFrequencyHz = 400e6;

} // namespace circuit
} // namespace ecssd

#endif // ECSSD_CIRCUIT_COMPONENTS_HH
