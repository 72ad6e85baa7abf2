/**
 * @file
 * AVX2 backend entry points: the fused_vec.hh steppers instantiated
 * on simd::U64x4Avx2. This is the only translation unit built with
 * -mavx2 (see src/predictors/CMakeLists.txt); its interface to the
 * rest of the build is scalar-argument member functions, so no vector
 * types cross the TU boundary.
 *
 * When the toolchain cannot compile -mavx2 the file is built plain
 * and falls back to the emulated type; runtime dispatch never selects
 * the Avx2 backend in that configuration (builtWithAvx2() is false),
 * so the fallback exists only to keep the link complete.
 */

#include "predictors/fused_vec.hh"

namespace ev8
{

#if defined(__AVX2__)
using Avx2Vec = simd::U64x4Avx2;
#else
using Avx2Vec = simd::U64x4;
#endif

uint64_t
TwoBcGskewPredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                             bool taken, uint64_t *misp)
{
    return stepVec<Avx2Vec>(snap, taken, misp);
}

uint64_t
GsharePredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                         bool taken, uint64_t *misp)
{
    return stepVec<Avx2Vec>(snap, taken, misp);
}

uint64_t
BimodalPredictor::FusedGroup::stepVecAvx2(const BranchSnapshot &snap,
                                          bool taken, uint64_t *misp)
{
    return stepVec<Avx2Vec>(snap, taken, misp);
}

} // namespace ev8
