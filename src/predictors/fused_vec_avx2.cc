/**
 * @file
 * AVX2 backend entry points: the fused_vec.hh steppers instantiated
 * on simd::U64x4Avx2. This is the only library translation unit built
 * with -mavx2 (see src/predictors/CMakeLists.txt); its interface to the
 * rest of the build is scalar-argument member functions, so no vector
 * types cross the TU boundary.
 *
 * When the toolchain cannot compile -mavx2 this file is left out of
 * the build: builtWithAvx2() is then false, the steppers' dispatch arm
 * for it is discarded at compile time, and every walk runs the scalar
 * steppers.
 */

#include "predictors/fused_vec.hh"

namespace ev8
{

uint64_t
TwoBcGskewPredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                             bool taken, uint64_t *misp)
{
    return stepVec<simd::U64x4Avx2>(snap, taken, misp);
}

uint64_t
GsharePredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                         bool taken, uint64_t *misp)
{
    return stepVec<simd::U64x4Avx2>(snap, taken, misp);
}

uint64_t
BimodalPredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                          bool taken, uint64_t *misp)
{
    return stepVec<simd::U64x4Avx2>(snap, taken, misp);
}

} // namespace ev8
