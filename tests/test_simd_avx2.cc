/**
 * @file
 * The AVX2 vector type of the fused steppers, checked op by op against
 * per-lane scalar expressions written out here. This is the one test
 * translation unit built with -mavx2 (mirroring
 * src/predictors/fused_vec_avx2.cc, and like it left out of builds
 * whose toolchain lacks -mavx2); every test skips at run time on CPUs
 * without AVX2, so the binary still loads there.
 *
 * The expressions pin the semantics the steppers rely on (simd.hh
 * file comment): variable shifts zero at counts >= 64, blend selects
 * per bit, gather reads absolute byte addresses, add wraps per lane.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/simd.hh"
#include "predictors/tables.hh"

namespace ev8
{
namespace
{

using simd::U64x4Avx2;

/** Deterministic xorshift64*; same stream shape as test_simd.cc. */
struct Rng
{
    uint64_t s = 0x853c49e6748fea9bULL;

    uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }
};

/** The four lanes of @p v, lane 0 first. */
struct Lanes
{
    uint64_t l[4];

    explicit Lanes(const U64x4Avx2 &v) { v.store(l); }
};

/** Expects @p v's lane i to equal @p want(i) for every lane. */
template <class Want>
void
expectLanes(const U64x4Avx2 &v, Want want, const char *what)
{
    const Lanes got(v);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got.l[i], want(i)) << what << " lane " << i;
}

TEST(SimdVector, Avx2MatchesScalarOracleOnRandomVectors)
{
    if (!simd::cpuHasAvx2())
        GTEST_SKIP() << "CPU does not report AVX2";

    Rng rng;
    for (int round = 0; round < 500; ++round) {
        uint64_t a[4], b[4], n[4];
        for (int i = 0; i < 4; ++i) {
            a[i] = rng.next();
            b[i] = rng.next();
            // Shift counts straddling the >= 64 zeroing boundary.
            n[i] = rng.next() % 130;
        }
        const U64x4Avx2 va = U64x4Avx2::load(a);
        const U64x4Avx2 vb = U64x4Avx2::load(b);
        const U64x4Avx2 vn = U64x4Avx2::load(n);

        expectLanes(va & vb, [&](int i) { return a[i] & b[i]; }, "and");
        expectLanes(va | vb, [&](int i) { return a[i] | b[i]; }, "or");
        expectLanes(va ^ vb, [&](int i) { return a[i] ^ b[i]; }, "xor");
        expectLanes(~va, [&](int i) { return ~a[i]; }, "not");
        expectLanes(U64x4Avx2::add(va, vb),
                    [&](int i) { return a[i] + b[i]; }, "add");
        expectLanes(U64x4Avx2::srlv(va, vn),
                    [&](int i) {
                        return n[i] >= 64 ? 0 : a[i] >> n[i];
                    },
                    "srlv");
        expectLanes(U64x4Avx2::sllv(va, vn),
                    [&](int i) {
                        return n[i] >= 64 ? 0 : a[i] << n[i];
                    },
                    "sllv");
        expectLanes(U64x4Avx2::blend(vb, va, ~va),
                    [&](int i) {
                        return (a[i] & b[i]) | (~a[i] & ~b[i]);
                    },
                    "blend");

        const unsigned imm = static_cast<unsigned>(rng.next() % 64);
        expectLanes(va << imm, [&](int i) { return a[i] << imm; },
                    "shl imm");
        expectLanes(va >> imm, [&](int i) { return a[i] >> imm; },
                    "shr imm");

        EXPECT_TRUE((va ^ va).allZero());
        EXPECT_EQ(va.allZero(), (a[0] | a[1] | a[2] | a[3]) == 0);
    }
}

/** Fixed edge cases of the documented op semantics. */
TEST(SimdVector, Avx2OpSemantics)
{
    if (!simd::cpuHasAvx2())
        GTEST_SKIP() << "CPU does not report AVX2";

    const uint64_t xs[4] = {~uint64_t{0}, 0x123456789abcdef0ULL, 1, 0};
    const uint64_t ns[4] = {0, 63, 64, 255}; // >= 64 must yield 0
    const U64x4Avx2 x = U64x4Avx2::load(xs);
    const U64x4Avx2 n = U64x4Avx2::load(ns);

    Lanes got(U64x4Avx2::srlv(x, n));
    EXPECT_EQ(got.l[0], ~uint64_t{0});
    EXPECT_EQ(got.l[1], 0x123456789abcdef0ULL >> 63);
    EXPECT_EQ(got.l[2], 0u);
    EXPECT_EQ(got.l[3], 0u);

    got = Lanes(U64x4Avx2::sllv(x, n));
    EXPECT_EQ(got.l[0], ~uint64_t{0});
    EXPECT_EQ(got.l[1], 0x123456789abcdef0ULL << 63);
    EXPECT_EQ(got.l[2], 0u);
    EXPECT_EQ(got.l[3], 0u);

    const uint64_t ms[4] = {~uint64_t{0}, 0, 0x00ff00ff00ff00ffULL, 1};
    got = Lanes(U64x4Avx2::blend(U64x4Avx2::load(ms),
                                 U64x4Avx2(0xaaaaaaaaaaaaaaaaULL),
                                 U64x4Avx2(0x5555555555555555ULL)));
    EXPECT_EQ(got.l[0], 0xaaaaaaaaaaaaaaaaULL);
    EXPECT_EQ(got.l[1], 0x5555555555555555ULL);
    EXPECT_EQ(got.l[2], 0x55aa55aa55aa55aaULL);
    EXPECT_EQ(got.l[3], 0x5555555555555554ULL);

    uint64_t pool[4] = {11, 22, 33, 44};
    uint64_t addrs[4];
    for (int i = 0; i < 4; ++i) // absolute addresses, reverse order
        addrs[i] = reinterpret_cast<uintptr_t>(&pool[3 - i]);
    got = Lanes(U64x4Avx2::gather(U64x4Avx2::load(addrs)));
    EXPECT_EQ(got.l[0], 44u);
    EXPECT_EQ(got.l[1], 33u);
    EXPECT_EQ(got.l[2], 22u);
    EXPECT_EQ(got.l[3], 11u);

    got = Lanes(U64x4Avx2::add(U64x4Avx2(~uint64_t{0}), U64x4Avx2(1)));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(got.l[i], 0u); // wraparound, no lane carry

    const uint64_t one_lane[4] = {0, 0, 0, uint64_t{1} << 63};
    EXPECT_FALSE(U64x4Avx2::load(one_lane).allZero());
}

TEST(SimdVector, Avx2BroadcastAndZeroMatchScalarOracle)
{
    if (!simd::cpuHasAvx2())
        GTEST_SKIP() << "CPU does not report AVX2";
    expectLanes(U64x4Avx2(0xdeadbeefcafef00dULL),
                [](int) { return 0xdeadbeefcafef00dULL; }, "broadcast");
    expectLanes(U64x4Avx2::zero(), [](int) { return uint64_t{0}; },
                "zero");
    EXPECT_TRUE(U64x4Avx2::zero().allZero());
    EXPECT_FALSE(U64x4Avx2(1).allZero());
}

/**
 * The masked word ops instantiated on U64x4Avx2, as the gshare and
 * bimodal vector steppers run them: each lane equals the uint64_t
 * instantiation that test_simd.cc checks against the scalar counter.
 */
TEST(MaskedBitplane, RandomWordsMatchScalarOnAvx2Instantiation)
{
    if (!simd::cpuHasAvx2())
        GTEST_SKIP() << "CPU does not report AVX2";

    Rng rng;
    for (int i = 0; i < 1000; ++i) {
        uint64_t words[4], sels[4];
        for (int lane = 0; lane < 4; ++lane) {
            words[lane] = rng.next();
            sels[lane] = rng.next();
        }
        const U64x4Avx2 w = U64x4Avx2::load(words);
        const U64x4Avx2 sel = U64x4Avx2::load(sels);
        expectLanes(TwoBitCounterTable::maskedSatIncWord(w, sel),
                    [&](int l) {
                        return TwoBitCounterTable::maskedSatIncWord(
                            words[l], sels[l]);
                    },
                    "inc");
        expectLanes(TwoBitCounterTable::maskedSatDecWord(w, sel),
                    [&](int l) {
                        return TwoBitCounterTable::maskedSatDecWord(
                            words[l], sels[l]);
                    },
                    "dec");
    }
}

} // namespace
} // namespace ev8
