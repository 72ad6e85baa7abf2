/**
 * @file
 * Tests for the hardware-constrained EV8 predictor: equivalence of its
 * flat-indexed bitplanes against the banked physical reference model,
 * block-wide prediction, and behavioural checks.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/ev8_predictor.hh"
#include "core/physical_storage.hh"
#include "predictors/tables.hh"
#include "sim/block_stream.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_program.hh"

namespace ev8
{
namespace
{

BranchSnapshot
randomSnapshot(Rng &rng, uint64_t hist_mask = mask(21))
{
    BranchSnapshot s;
    s.blockAddr = (0x120000000ULL + (rng.below(1 << 18) << 2))
        & ~uint64_t{0}; // arbitrary text addresses
    s.pc = s.blockAddr + rng.below(8) * 4;
    s.hist.indexHist = rng.next() & hist_mask;
    s.hist.pathZ = 0x120000000ULL + (rng.below(1 << 18) << 2);
    s.bank = uint8_t(rng.below(4));
    return s;
}

/** The per-fetch-block index inputs of a snapshot. */
Ev8IndexInput
inputOf(const BranchSnapshot &s)
{
    return Ev8IndexInput{s.blockAddr, s.hist.indexHist, s.hist.pathZ,
                         s.bank};
}

TEST(Ev8Predictor, StorageIs352Kbits)
{
    Ev8Predictor p;
    EXPECT_EQ(p.storageBits(), 352u * 1024);
}

/**
 * The banked reference: the eight physical arrays of Section 7.1
 * (Ev8PhysicalStorage), indexed bit by bit through ev8EntryIndex() and
 * trained by the shared Section 4.2 policy. Each flat index is
 * decomposed back into word coordinates for every access, as the
 * arrays see it, and the arrays tally every access.
 */
class BankedReference final : public ConditionalBranchPredictor
{
  public:
    explicit BankedReference(const Ev8Config &config) : cfg(config) {}

    bool
    predict(const BranchSnapshot &snap) override
    {
        const Ev8IndexInput in = inputOf(snap);
        for (unsigned t = 0; t < kNumTables; ++t) {
            look.idx[t] = ev8EntryIndex(static_cast<TableId>(t), in,
                                        snap.pc, cfg.wordline);
        }
        computeGskewVotes(Facade{arrays}, look);
        return look.overall;
    }

    void
    update(const BranchSnapshot &, bool taken, bool) override
    {
        Facade facade{arrays};
        if (cfg.partialUpdate)
            gskewPartialUpdate(facade, look, taken);
        else
            gskewTotalUpdate(facade, look, taken);
    }

    /** One 8-bit word read per table, as Ev8Predictor::predictBlock. */
    std::array<uint8_t, kNumTables>
    words(const Ev8IndexInput &in) const
    {
        std::array<uint8_t, kNumTables> out{};
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            out[t] =
                arrays.readPredWord(id, ev8WordCoords(id, in, cfg.wordline));
        }
        return out;
    }

    uint64_t storageBits() const override
    {
        return Ev8PhysicalStorage::storageBits();
    }
    std::string name() const override { return "banked-reference"; }
    void reset() override { arrays.reset(); }

    VoteSnapshot
    lastVotes() const override
    {
        VoteSnapshot v;
        v.valid = true;
        v.bim = look.bimPred;
        v.g0 = look.g0Pred;
        v.g1 = look.g1Pred;
        v.meta = look.metaPred;
        v.majority = look.majority;
        return v;
    }

    const Ev8AccessStats &accessStats() const
    {
        return arrays.accessStats();
    }

  private:
    /** Flat index -> (word coordinates, in-word bit) per access. */
    struct Facade
    {
        Ev8PhysicalStorage &arrays;

        bool
        taken(TableId t, size_t idx) const
        {
            return arrays.readPredBit(t, ev8DecomposeIndex(t, idx),
                                      ev8IndexOffset(idx));
        }

        void
        strengthen(TableId t, size_t idx)
        {
            const Ev8WordCoords c = ev8DecomposeIndex(t, idx);
            const unsigned b = ev8IndexOffset(idx);
            arrays.writeHystBit(t, c, b, arrays.readPredBit(t, c, b));
        }

        void
        update(TableId t, size_t idx, bool v)
        {
            const Ev8WordCoords c = ev8DecomposeIndex(t, idx);
            const unsigned b = ev8IndexOffset(idx);
            const bool p = arrays.readPredBit(t, c, b);
            const bool h = arrays.readHystBit(t, c, b);
            if (p == v) {
                arrays.writeHystBit(t, c, b, p); // strengthen
            } else if (h == p) {
                arrays.writeHystBit(t, c, b, !p); // weaken
            } else {
                arrays.writePredBit(t, c, b, v); // flip
                arrays.writeHystBit(t, c, b, !v);
            }
        }
    };

    Ev8Config cfg;
    Ev8PhysicalStorage arrays;
    GskewLookup look;
};

/** Both update policies under both wordline choices. */
std::vector<Ev8Config>
oracleConfigs()
{
    std::vector<Ev8Config> out;
    for (const bool partial : {true, false}) {
        for (const WordlineMode mode :
             {WordlineMode::Ev8, WordlineMode::AddressOnly}) {
            Ev8Config cfg;
            cfg.partialUpdate = partial;
            cfg.wordline = mode;
            cfg.label = std::string(partial ? "partial" : "total")
                + (mode == WordlineMode::Ev8 ? "/ev8" : "/address-only");
            out.push_back(cfg);
        }
    }
    return out;
}

/** The block prediction a reference word read implies: offset o
 *  combines bit (o XOR u_table) of each table's word. */
std::array<bool, Ev8BlockPrediction::kSlots>
takenFromWords(const std::array<uint8_t, kNumTables> &words,
               const Ev8IndexInput &in, WordlineMode mode)
{
    std::array<bool, Ev8BlockPrediction::kSlots> out{};
    for (unsigned o = 0; o < out.size(); ++o) {
        bool v[kNumTables];
        for (unsigned t = 0; t < kNumTables; ++t) {
            const unsigned u =
                ev8WordCoords(static_cast<TableId>(t), in, mode).unshuffle;
            v[t] = ((words[t] >> (o ^ u)) & 1) != 0;
        }
        const bool majority = int(v[BIM]) + v[G0] + v[G1] >= 2;
        out[o] = v[META] ? majority : v[BIM];
    }
    return out;
}

/**
 * Walks two predictors in lockstep over one simulation and counts the
 * branches where their predictions or votes differ; the walk follows
 * the first.
 */
class Lockstep final : public ConditionalBranchPredictor
{
  public:
    Lockstep(ConditionalBranchPredictor &first,
             ConditionalBranchPredictor &second)
        : a(first), b(second)
    {}

    bool
    predict(const BranchSnapshot &snap) override
    {
        predA = a.predict(snap);
        predB = b.predict(snap);
        const VoteSnapshot va = a.lastVotes(), vb = b.lastVotes();
        mismatches_ += predA != predB || va.bim != vb.bim
            || va.g0 != vb.g0 || va.g1 != vb.g1 || va.meta != vb.meta
            || va.majority != vb.majority;
        return predA;
    }

    void
    update(const BranchSnapshot &snap, bool taken, bool) override
    {
        a.update(snap, taken, predA);
        b.update(snap, taken, predB);
    }

    uint64_t storageBits() const override { return a.storageBits(); }
    std::string name() const override { return "lockstep"; }
    void reset() override
    {
        a.reset();
        b.reset();
    }

    uint64_t mismatches() const { return mismatches_; }

  private:
    ConditionalBranchPredictor &a, &b;
    bool predA = false, predB = false;
    uint64_t mismatches_ = 0;
};

void
expectSameAccessStats(const Ev8AccessStats &got,
                      const Ev8AccessStats &want)
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        const Ev8AccessStats::Table &g = got.tables[t];
        const Ev8AccessStats::Table &w = want.tables[t];
        EXPECT_EQ(g.predReads, w.predReads) << "table " << t;
        EXPECT_EQ(g.predWrites, w.predWrites) << "table " << t;
        EXPECT_EQ(g.hystReads, w.hystReads) << "table " << t;
        EXPECT_EQ(g.hystWrites, w.hystWrites) << "table " << t;
        EXPECT_EQ(g.wordlineReads, w.wordlineReads) << "table " << t;
    }
}

void
expectSameVotes(const VoteSnapshot &got, const VoteSnapshot &want,
                int branch)
{
    ASSERT_EQ(got.bim, want.bim) << "branch " << branch;
    ASSERT_EQ(got.g0, want.g0) << "branch " << branch;
    ASSERT_EQ(got.g1, want.g1) << "branch " << branch;
    ASSERT_EQ(got.meta, want.meta) << "branch " << branch;
    ASSERT_EQ(got.majority, want.majority) << "branch " << branch;
}

/**
 * The bitplane predictor against the banked reference on random
 * snapshots: every prediction, every vote, every block-wide word read
 * and the final access tallies agree.
 */
TEST(Ev8Predictor, PhysicalModelMatchesLogicalMirror)
{
    for (const Ev8Config &cfg : oracleConfigs()) {
        SCOPED_TRACE(cfg.label);
        Ev8Predictor fast(cfg);
        fast.enableStats(true);
        BankedReference ref(cfg);
        Rng rng(42);
        for (int i = 0; i < 30000; ++i) {
            const BranchSnapshot s = randomSnapshot(rng);
            const bool taken = rng.chance(0.4);
            const bool fast_pred = fast.predict(s);
            const bool ref_pred = ref.predict(s);
            ASSERT_EQ(fast_pred, ref_pred) << "diverged at branch " << i;
            expectSameVotes(fast.lastVotes(), ref.lastVotes(), i);
            fast.update(s, taken, fast_pred);
            ref.update(s, taken, ref_pred);
            if (i % 16 == 0) {
                const Ev8IndexInput in = inputOf(s);
                const Ev8BlockPrediction block = fast.predictBlock(in);
                ASSERT_EQ(block.takenAtOffset,
                          takenFromWords(ref.words(in), in, cfg.wordline))
                    << "block read at branch " << i;
                for (unsigned t = 0; t < kNumTables; ++t) {
                    const Ev8WordCoords want = ev8WordCoords(
                        static_cast<TableId>(t), in, cfg.wordline);
                    ASSERT_EQ(block.coords[t].bank, want.bank);
                    ASSERT_EQ(block.coords[t].wordline, want.wordline);
                    ASSERT_EQ(block.coords[t].column, want.column);
                    ASSERT_EQ(block.coords[t].unshuffle, want.unshuffle);
                }
            }
        }
        expectSameAccessStats(fast.accessStats(), ref.accessStats());
    }
}

/** The same agreement on a suite stream walked by the simulator under
 *  the full EV8 information vector (3-old lghist, path, banks). */
TEST(Ev8Predictor, MatchesBankedReferenceOnSuiteStream)
{
    const BlockStream stream = decodeBlockStream(
        generateTrace(findBenchmark("gcc").profile, 20000));
    for (const Ev8Config &cfg : oracleConfigs()) {
        SCOPED_TRACE(cfg.label);
        Ev8Predictor fast(cfg);
        fast.enableStats(true);
        BankedReference ref(cfg);
        Lockstep both(fast, ref);
        const SimResult r = simulateStream(stream, both, SimConfig::ev8());
        EXPECT_GT(r.condBranches, 10000u);
        EXPECT_EQ(both.mismatches(), 0u);
        expectSameAccessStats(fast.accessStats(), ref.accessStats());
    }
}

TEST(Ev8Predictor, HysteresisSharingIsVisibleInMapping)
{
    // Two G0 (or Meta) prediction indices differing only in the index
    // MSB (the top column bit) share a hysteresis entry; G1 and BIM
    // hysteresis is full size.
    const Ev8Predictor p;
    EXPECT_EQ(p.bank(G0).hystIndex(0x0abc), p.bank(G0).hystIndex(0x8abc));
    EXPECT_EQ(p.bank(META).hystIndex(0x0abc),
              p.bank(META).hystIndex(0x8abc));
    EXPECT_NE(p.bank(G1).hystIndex(0x0abc), p.bank(G1).hystIndex(0x8abc));
    EXPECT_EQ(p.bank(BIM).hystSize(), p.bank(BIM).predSize());
}

TEST(Ev8Predictor, PredictBlockAgreesWithPerBranchPredictions)
{
    Ev8Predictor p;
    Rng rng(7);
    // Train a little first so predictions are non-trivial.
    for (int i = 0; i < 20000; ++i) {
        const BranchSnapshot s = randomSnapshot(rng);
        p.update(s, rng.chance(0.5), p.predict(s));
    }
    for (int i = 0; i < 2000; ++i) {
        const BranchSnapshot base = randomSnapshot(rng);
        const Ev8BlockPrediction block = p.predictBlock(inputOf(base));
        for (unsigned slot = 0; slot < 8; ++slot) {
            BranchSnapshot s = base;
            s.pc = base.blockAddr + slot * 4;
            const unsigned offset = unsigned(s.pc >> 2) & 7;
            ASSERT_EQ(block.takenAtOffset[offset], p.predict(s))
                << "slot " << slot;
        }
    }
}

TEST(Ev8Predictor, LearnsBiasedBranches)
{
    Ev8Predictor p;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        BranchSnapshot s;
        s.blockAddr = 0x120000040ULL;
        s.pc = s.blockAddr + 8;
        s.hist.indexHist = 0x155555; // steady context
        s.bank = 1;
        const bool pred = p.predict(s);
        p.update(s, true, pred);
        wrong += !pred;
    }
    EXPECT_LT(wrong, 5);
}

TEST(Ev8Predictor, LearnsHistoryCorrelation)
{
    Ev8Predictor p;
    Rng rng(11);
    uint64_t lghist = 0;
    int wrong_late = 0;
    const int n = 6000;
    for (int i = 0; i < n; ++i) {
        const bool context = rng.chance(0.5);
        lghist = ((lghist << 1) | (context ? 1 : 0)) & mask(21);
        BranchSnapshot s;
        s.blockAddr = 0x120000100ULL;
        s.pc = s.blockAddr + 4;
        s.hist.indexHist = lghist;
        s.bank = unsigned(i) & 3;
        const bool pred = p.predict(s);
        p.update(s, context, pred);
        if (i > n / 2)
            wrong_late += pred != context;
    }
    EXPECT_LT(wrong_late / double(n / 2), 0.08);
}

TEST(Ev8Predictor, WordlineModeChangesBehaviour)
{
    Ev8Config addr_cfg;
    addr_cfg.wordline = WordlineMode::AddressOnly;
    Ev8Predictor ev8_mode;
    Ev8Predictor addr_mode(addr_cfg);
    BranchSnapshot a;
    a.blockAddr = 0x120000000ULL;
    a.pc = a.blockAddr;
    a.hist.indexHist = 0x5;
    // With history in the wordline, different histories may select
    // different wordlines; with address-only they cannot.
    BranchSnapshot b = a;
    b.hist.indexHist = 0xa;
    EXPECT_NE(ev8_mode.tableIndex(BIM, a), ev8_mode.tableIndex(BIM, b));
    EXPECT_EQ(addr_mode.tableIndex(BIM, a), addr_mode.tableIndex(BIM, b));
}

TEST(Ev8Predictor, TotalUpdateConfigObservablyDifferent)
{
    Ev8Config total_cfg;
    total_cfg.partialUpdate = false;
    Ev8Predictor partial;
    Ev8Predictor total(total_cfg);
    Rng rng(13);
    int diffs = 0;
    for (int i = 0; i < 20000; ++i) {
        const BranchSnapshot s = randomSnapshot(rng, mask(12));
        const bool taken = rng.chance(0.3);
        const bool a = partial.predict(s);
        partial.update(s, taken, a);
        const bool b = total.predict(s);
        total.update(s, taken, b);
        diffs += a != b;
    }
    EXPECT_GT(diffs, 0);
}

TEST(Ev8Predictor, ResetRestoresColdState)
{
    Ev8Predictor p;
    Rng rng(15);
    const BranchSnapshot probe = randomSnapshot(rng);
    const bool cold = p.predict(probe);
    for (int i = 0; i < 5000; ++i) {
        const BranchSnapshot s = randomSnapshot(rng);
        p.update(s, true, p.predict(s));
    }
    p.reset();
    EXPECT_EQ(p.predict(probe), cold);
}

TEST(Ev8Predictor, NameAndConfig)
{
    Ev8Predictor p;
    EXPECT_EQ(p.name(), "EV8");
    EXPECT_TRUE(p.config().partialUpdate);
    EXPECT_EQ(p.config().wordline, WordlineMode::Ev8);
}

} // namespace
} // namespace ev8
