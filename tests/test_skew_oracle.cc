/**
 * @file
 * Independent oracles for the skewed predictors: 2Bc-gskew and e-gskew
 * written as plain arrays of one-byte counters, indexed by the
 * reference skewIndex()/addressIndex() on every branch, with no packing,
 * no compiled index tables, no fusion and no SIMD. Each oracle runs in
 * lockstep with the production predictor on random block streams --
 * through predict()/update(), the FusedGroup scalar stepper and the
 * AVX2 stepper -- under the ghist, lghist+path and 3-old history views
 * and both update policies, and every prediction, vote and final
 * counter must agree.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/history.hh"
#include "common/random.hh"
#include "common/simd.hh"
#include "frontend/lghist.hh"
#include "predictors/egskew.hh"
#include "predictors/skew.hh"
#include "predictors/twobcgskew.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

/** Saturating 2-bit counter step toward @p taken. */
uint8_t
stepCounter(uint8_t c, bool taken)
{
    return taken ? (c < 3 ? c + 1 : 3) : (c > 0 ? c - 1 : 0);
}

/**
 * 2Bc-gskew as in Sections 4.1-4.4: four tables of prediction bits and
 * (possibly smaller, shared) hysteresis bits. A (prediction,
 * hysteresis) pair is the 2-bit counter 2p + h: 0 strong not-taken,
 * 1 weak not-taken (the initial state), 2 weak taken, 3 strong taken.
 */
class GskewOracle
{
  public:
    explicit GskewOracle(const TwoBcGskewConfig &config) : cfg(config)
    {
        for (unsigned t = 0; t < kNumTables; ++t) {
            pred[t].assign(size_t{1} << cfg.tables[t].log2Pred, 0);
            hyst[t].assign(size_t{1} << cfg.tables[t].log2Hyst, 1);
        }
    }

    bool
    predict(const BranchSnapshot &snap)
    {
        for (unsigned t = 0; t < kNumTables; ++t) {
            idx[t] = index(t, snap);
            vote[t] = pred[t][idx[t]] != 0;
        }
        majority = int(vote[BIM]) + vote[G0] + vote[G1] >= 2;
        overall = vote[META] ? majority : vote[BIM];
        return overall;
    }

    void
    update(bool taken)
    {
        if (!cfg.partialUpdate) {
            train(BIM, taken);
            train(G0, taken);
            train(G1, taken);
            if (majority != vote[BIM])
                train(META, majority == taken);
            return;
        }
        if (overall == taken) {
            if (vote[BIM] == vote[G0] && vote[G0] == vote[G1])
                return;
            if (majority != vote[BIM])
                strengthen(META);
            strengthenUsed(vote[META], taken);
            return;
        }
        if (majority != vote[BIM]) {
            train(META, majority == taken);
            const bool meta = pred[META][idx[META]] != 0;
            if ((meta ? majority : vote[BIM]) == taken) {
                strengthenUsed(meta, taken);
                return;
            }
        }
        train(BIM, taken);
        train(G0, taken);
        train(G1, taken);
    }

    VoteSnapshot
    votes() const
    {
        VoteSnapshot v;
        v.valid = true;
        v.bim = vote[BIM];
        v.g0 = vote[G0];
        v.g1 = vote[G1];
        v.meta = vote[META];
        v.majority = majority;
        return v;
    }

    /** Every counter bit equals the predictor's bitplanes. */
    ::testing::AssertionResult
    sameTables(const TwoBcGskewPredictor &p) const
    {
        for (unsigned t = 0; t < kNumTables; ++t) {
            const SplitCounterArray &bank = p.bank(TableId(t));
            for (size_t i = 0; i < pred[t].size(); ++i) {
                if (bank.rawPred(i) != pred[t][i]) {
                    return ::testing::AssertionFailure()
                        << "table " << t << " prediction bit " << i;
                }
            }
            for (size_t i = 0; i < hyst[t].size(); ++i) {
                if (bank.rawHyst(i) != hyst[t][i]) {
                    return ::testing::AssertionFailure()
                        << "table " << t << " hysteresis bit " << i;
                }
            }
        }
        return ::testing::AssertionSuccess();
    }

    size_t
    index(unsigned t, const BranchSnapshot &snap) const
    {
        const TableGeometry &geo = cfg.tables[t];
        uint64_t addr = snap.pc;
        if (cfg.usePathInfo) {
            const HistoryView &h = snap.hist;
            if (t == BIM) {
                addr ^= ((h.pathZ >> 5) & 3) << 5;
            } else {
                addr ^= (((h.pathZ >> 2) & 0xfff)
                         ^ rotl((h.pathY >> 2) & 0xfff, 4, 24)
                         ^ rotl((h.pathX >> 2) & 0xfff, 8, 24))
                    << 2;
            }
        }
        if (t == BIM && geo.histLen == 0)
            return size_t(addressIndex(addr, geo.log2Pred));
        return size_t(skewIndex(t, addr, snap.hist.indexHist, geo.histLen,
                                geo.log2Pred));
    }

  private:
    uint8_t &
    hystBit(unsigned t)
    {
        return hyst[t][idx[t] & (hyst[t].size() - 1)];
    }

    void
    train(unsigned t, bool taken)
    {
        uint8_t &p = pred[t][idx[t]];
        uint8_t &h = hystBit(t);
        const uint8_t c = stepCounter(uint8_t(2 * p + h), taken);
        p = c >> 1;
        h = c & 1;
    }

    /** A correct prediction makes its counter strong. */
    void strengthen(unsigned t) { hystBit(t) = pred[t][idx[t]]; }

    /** Strengthens the component tables the chooser used. */
    void
    strengthenUsed(bool meta, bool taken)
    {
        if (!meta) {
            strengthen(BIM);
            return;
        }
        for (unsigned t : {BIM, G0, G1}) {
            if (vote[t] == taken)
                strengthen(t);
        }
    }

    TwoBcGskewConfig cfg;
    std::array<std::vector<uint8_t>, kNumTables> pred, hyst;
    std::array<size_t, kNumTables> idx{};
    std::array<bool, kNumTables> vote{};
    bool majority = false, overall = false;
};

/** e-gskew [15]: three banks of 2-bit counters, majority vote. */
class EgskewOracle
{
  public:
    EgskewOracle(unsigned log2_entries, unsigned hist_len, bool partial)
        : n(log2_entries), len(hist_len), partialUpdate(partial)
    {
        for (auto &b : banks)
            b.assign(size_t{1} << n, 1);
    }

    bool
    predict(const BranchSnapshot &snap)
    {
        idx[0] = size_t(addressIndex(snap.pc, n));
        idx[1] = size_t(skewIndex(1, snap.pc, snap.hist.indexHist, len, n));
        idx[2] = size_t(skewIndex(2, snap.pc, snap.hist.indexHist, len, n));
        int sum = 0;
        for (unsigned b = 0; b < 3; ++b) {
            vote[b] = banks[b][idx[b]] >= 2;
            sum += vote[b];
        }
        prediction = sum >= 2;
        return prediction;
    }

    void
    update(bool taken)
    {
        for (unsigned b = 0; b < 3; ++b) {
            uint8_t &c = banks[b][idx[b]];
            if (!partialUpdate || prediction != taken)
                c = stepCounter(c, taken);
            else if (vote[b] == taken)
                c = stepCounter(c, vote[b]);
        }
    }

    std::array<bool, 3> vote{};

  private:
    unsigned n, len;
    bool partialUpdate;
    std::array<std::vector<uint8_t>, 3> banks;
    std::array<size_t, 3> idx{};
    bool prediction = false;
};

/** The history the index functions consume. */
enum class View
{
    Ghist,      //!< per-branch global history
    LghistPath, //!< up-to-date lghist with the path bit
    ThreeOld,   //!< lghist as of three fetch blocks ago
};

struct Step
{
    BranchSnapshot snap;
    bool taken;
};

/**
 * A random block stream seen through @p view: block addresses drawn
 * from a pool (some above 2^32, so the high pc bits move too) with
 * frequent loop-like repeats, up to four branches per block, and
 * per-branch biases that make some branches predictable.
 */
std::vector<Step>
randomSteps(View view, uint64_t seed, size_t blocks)
{
    Rng rng(seed);
    std::vector<uint64_t> pool(48);
    for (size_t i = 0; i < pool.size(); ++i) {
        const uint64_t base = i % 4 == 0 ? rng.next() : 0x120000000ULL;
        pool[i] = (base + rng.below(1 << 22) * 32) & ~uint64_t{31};
    }
    HistoryRegister ghist;
    LghistTracker lghist(/*include_path=*/true);
    DelayedHistory delayed(view == View::ThreeOld ? 3 : 0);
    uint64_t path_z = 0, path_y = 0, path_x = 0;
    size_t at = 0;

    std::vector<Step> steps;
    for (size_t b = 0; b < blocks; ++b) {
        at = rng.chance(0.7) ? (at + 1) % 6 : rng.below(pool.size());
        const uint64_t addr = pool[at];
        const uint64_t block_hist = delayed.view();
        const unsigned nbr = unsigned(rng.below(5));
        unsigned slot = 0;
        uint64_t last_pc = 0;
        bool last_taken = false;
        for (unsigned j = 0; j < nbr && slot < 8; ++j) {
            slot += unsigned(rng.below(3));
            if (slot >= 8)
                break;
            Step s;
            s.snap.pc = addr + slot * 4;
            s.snap.blockAddr = addr;
            s.snap.hist.ghist = ghist.raw();
            s.snap.hist.indexHist =
                view == View::Ghist ? ghist.raw() : block_hist;
            s.snap.hist.pathZ = path_z;
            s.snap.hist.pathY = path_y;
            s.snap.hist.pathX = path_x;
            // Biased by branch, correlated with the last outcome.
            const uint64_t kind = (s.snap.pc >> 2) % 5;
            s.taken = kind == 0   ? rng.chance(0.97)
                      : kind == 1 ? rng.chance(0.05)
                      : kind == 2 ? ghist.get(0) != rng.chance(0.1)
                                  : rng.chance(0.5);
            steps.push_back(s);
            ghist.push(s.taken);
            last_pc = s.snap.pc;
            last_taken = s.taken;
            ++slot;
        }
        if (last_pc != 0)
            lghist.onBranchBlock(last_pc, last_taken);
        delayed.advance(lghist.value());
        path_x = path_y;
        path_y = path_z;
        path_z = addr;
    }
    return steps;
}

/** The lane configurations every group test drives side by side. */
std::vector<TwoBcGskewConfig>
oracleConfigs(bool partial)
{
    std::vector<TwoBcGskewConfig> cfgs;
    // Address-only BIM, ghist-style lengths.
    cfgs.push_back(TwoBcGskewConfig::symmetric(10, 0, 7, 9, 13, "a"));
    // BIM with history, path hashing, and a long G1 history.
    TwoBcGskewConfig b = TwoBcGskewConfig::symmetric(11, 4, 9, 12, 27, "b");
    b.usePathInfo = true;
    cfgs.push_back(b);
    // EV8-style shared hysteresis and a smaller BIM.
    TwoBcGskewConfig c = TwoBcGskewConfig::symmetric(12, 4, 13, 15, 21, "c");
    c.tables[BIM].log2Pred = c.tables[BIM].log2Hyst = 10;
    c.tables[G0].log2Hyst = 11;
    c.tables[META].log2Hyst = 11;
    c.usePathInfo = true;
    cfgs.push_back(c);
    // Index fields wider than 16 bits (two-word compiled tables).
    cfgs.push_back(TwoBcGskewConfig::symmetric(17, 0, 11, 14, 19, "d"));
    // A one-entry-bit BIM.
    cfgs.push_back(TwoBcGskewConfig::symmetric(8, 0, 5, 6, 8, "e"));
    for (TwoBcGskewConfig &cfg : cfgs)
        cfg.partialUpdate = partial;
    cfgs.back().tables[BIM] = {1, 1, 0};
    return cfgs;
}

constexpr View kViews[] = {View::Ghist, View::LghistPath, View::ThreeOld};
constexpr size_t kBlocks = 6000;

std::string
caseName(View view, bool partial)
{
    static const char *const names[] = {"ghist", "lghist+path", "3-old"};
    return std::string(names[int(view)])
        + (partial ? " partial" : " total");
}

::testing::AssertionResult
sameVotes(const VoteSnapshot &got, const VoteSnapshot &want)
{
    if (got.valid == want.valid && got.bim == want.bim
        && got.g0 == want.g0 && got.g1 == want.g1 && got.meta == want.meta
        && got.majority == want.majority)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "votes differ";
}

TEST(SkewOracle, TwoBcGskewPredictUpdateMatchesOracle)
{
    for (const View view : kViews) {
        for (const bool partial : {true, false}) {
            const std::vector<Step> steps =
                randomSteps(view, 11 + int(view), kBlocks);
            for (const TwoBcGskewConfig &cfg : oracleConfigs(partial)) {
                const std::string label =
                    caseName(view, partial) + " config " + cfg.label;
                TwoBcGskewPredictor pred(cfg);
                GskewOracle oracle(cfg);
                for (size_t i = 0; i < steps.size(); ++i) {
                    const Step &s = steps[i];
                    const bool want = oracle.predict(s.snap);
                    const bool got = pred.predict(s.snap);
                    ASSERT_EQ(got, want) << label << " step " << i;
                    ASSERT_TRUE(sameVotes(pred.lastVotes(), oracle.votes()))
                        << label << " step " << i;
                    for (unsigned t = 0; t < kNumTables; ++t) {
                        ASSERT_EQ(pred.tableIndex(TableId(t), s.snap),
                                  oracle.index(t, s.snap))
                            << label << " step " << i;
                    }
                    pred.update(s.snap, s.taken, got);
                    oracle.update(s.taken);
                }
                EXPECT_TRUE(oracle.sameTables(pred)) << label;
            }
        }
    }
}

/** Drives every oracle config as one FusedGroup under @p backend. */
void
expectGroupMatchesOracle(const char *backend)
{
    const ScopedEnv simd_env("EV8_SIMD", backend);
    for (const View view : kViews) {
        for (const bool partial : {true, false}) {
            const std::string label =
                caseName(view, partial) + " simd=" + backend;
            const std::vector<Step> steps =
                randomSteps(view, 23 + int(view), kBlocks);
            std::vector<std::unique_ptr<TwoBcGskewPredictor>> preds;
            std::vector<TwoBcGskewPredictor *> raw;
            std::vector<GskewOracle> oracles;
            for (const TwoBcGskewConfig &cfg : oracleConfigs(partial)) {
                preds.push_back(std::make_unique<TwoBcGskewPredictor>(cfg));
                raw.push_back(preds.back().get());
                oracles.emplace_back(cfg);
            }
            std::vector<uint64_t> misp(raw.size(), 0);
            TwoBcGskewPredictor::FusedGroup group(raw.data(), raw.size(),
                                                  /*event_walk=*/true);
            for (size_t i = 0; i < steps.size(); ++i) {
                const Step &s = steps[i];
                uint64_t want = 0;
                for (size_t l = 0; l < oracles.size(); ++l)
                    want |= uint64_t{oracles[l].predict(s.snap) != s.taken}
                        << l;
                const uint64_t got = group.step(s.snap, s.taken, misp.data());
                ASSERT_EQ(got, want) << label << " step " << i;
                for (size_t l = 0; l < oracles.size(); ++l) {
                    if ((got >> l) & 1) {
                        ASSERT_TRUE(sameVotes(raw[l]->lastVotes(),
                                              oracles[l].votes()))
                            << label << " lane " << l << " step " << i;
                    }
                    oracles[l].update(s.taken);
                }
            }
            for (size_t l = 0; l < oracles.size(); ++l)
                EXPECT_TRUE(oracles[l].sameTables(*raw[l]))
                    << label << " lane " << l;
        }
    }
}

TEST(SkewOracle, TwoBcGskewScalarStepperMatchesOracle)
{
    expectGroupMatchesOracle("0");
}

TEST(SkewOracle, TwoBcGskewAvx2StepperMatchesOracle)
{
    if (!simd::builtWithAvx2() || !simd::cpuHasAvx2())
        GTEST_SKIP() << "no AVX2 stepper in this build or on this CPU";
    expectGroupMatchesOracle("avx2");
}

TEST(SkewOracle, EgskewMatchesOracle)
{
    for (const View view : kViews) {
        for (const bool partial : {true, false}) {
            const std::vector<Step> steps =
                randomSteps(view, 37 + int(view), kBlocks);
            for (const auto &[n, len] :
                 {std::pair{10u, 0u}, {11u, 15u}, {17u, 21u}}) {
                const std::string label = caseName(view, partial) + " n="
                    + std::to_string(n) + " h=" + std::to_string(len);
                EgskewPredictor split(n, len, partial);
                EgskewPredictor fused(n, len, partial);
                EgskewOracle oracle(n, len, partial);
                for (size_t i = 0; i < steps.size(); ++i) {
                    const Step &s = steps[i];
                    const bool want = oracle.predict(s.snap);
                    const bool got = split.predict(s.snap);
                    ASSERT_EQ(got, want) << label << " step " << i;
                    const VoteSnapshot v = split.lastVotes();
                    ASSERT_EQ(v.bim, oracle.vote[0]) << label;
                    ASSERT_EQ(v.g0, oracle.vote[1]) << label;
                    ASSERT_EQ(v.g1, oracle.vote[2]) << label;
                    split.update(s.snap, s.taken, got);
                    ASSERT_EQ(fused.predictAndUpdate(s.snap, s.taken), want)
                        << label << " step " << i;
                    oracle.update(s.taken);
                }
            }
        }
    }
}

} // namespace
} // namespace ev8
