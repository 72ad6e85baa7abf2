/**
 * @file
 * Emulated-vector backend entry points: the fused_vec.hh steppers
 * instantiated on simd::U64x4. Compiled without any ISA flags, so
 * this backend runs (and can be byte-compared against AVX2) on every
 * machine; selected by EV8_SIMD=scalar.
 */

#include "predictors/fused_vec.hh"

namespace ev8
{

uint64_t
TwoBcGskewPredictor::FusedGroup::stepVecScalar(const BranchSnapshot &snap,
                                               bool taken, uint64_t *misp)
{
    return stepVec<simd::U64x4>(snap, taken, misp);
}

uint64_t
GsharePredictor::FusedGroup::stepVecScalar(const BranchSnapshot &snap,
                                           bool taken, uint64_t *misp)
{
    return stepVec<simd::U64x4>(snap, taken, misp);
}

uint64_t
BimodalPredictor::FusedGroup::stepVecScalar(const BranchSnapshot &snap,
                                            bool taken, uint64_t *misp)
{
    return stepVec<simd::U64x4>(snap, taken, misp);
}

} // namespace ev8
