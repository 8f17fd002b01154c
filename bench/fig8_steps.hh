/**
 * @file
 * The Fig 8 ladder: the five design points that add one technique
 * each, shared by paper_tables (every Table 3 benchmark at full size)
 * and bench_smoke (one benchmark at smoke scale).
 */

#ifndef ECSSD_BENCH_FIG8_STEPS_HH
#define ECSSD_BENCH_FIG8_STEPS_HH

#include <array>

#include "ecssd/system.hh"

namespace ecssd
{
namespace bench
{

/**
 * Step 0 is the naive MAC with sequential storing and the homogeneous
 * layout; steps 1-4 add uniform interleaving, the alignment-free MAC,
 * the heterogeneous layout and learning-based interleaving.  Step 4
 * equals EcssdOptions::full().
 */
inline std::array<EcssdOptions, 5>
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

} // namespace bench
} // namespace ecssd

#endif // ECSSD_BENCH_FIG8_STEPS_HH
