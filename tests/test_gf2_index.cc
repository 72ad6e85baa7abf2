/**
 * @file
 * Tests for the GF(2) index compiler (common/gf2_index.hh) and the
 * skewed-predictor index tables it compiles (predictors/skew.hh): every
 * geometry a registry grid or a factory preset builds must match the
 * reference skewIndex()/addressIndex() on every unit vector and on
 * 100K random inputs; a reference that is not linear, an index wider
 * than its field and a geometry the reference does not cover must be
 * refused.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/gf2_index.hh"
#include "common/random.hh"
#include "predictors/egskew.hh"
#include "predictors/factory.hh"
#include "predictors/skew.hh"
#include "predictors/twobcgskew.hh"
#include "serve/grids.hh"

namespace ev8
{
namespace
{

/** The index fields of @p pred, if it is a skewed predictor. */
const std::vector<SkewField> *
skewFields(const ConditionalBranchPredictor &pred)
{
    if (const auto *g = dynamic_cast<const TwoBcGskewPredictor *>(&pred))
        return &g->indexTables().fields();
    if (const auto *e = dynamic_cast<const EgskewPredictor *>(&pred))
        return &e->indexTables().fields();
    return nullptr;
}

/** Every distinct skewed geometry the grids and factory presets build. */
std::vector<std::vector<SkewField>>
builtGeometries()
{
    std::vector<std::vector<SkewField>> out;
    const auto add = [&](const ConditionalBranchPredictor &pred) {
        const std::vector<SkewField> *fields = skewFields(pred);
        if (fields == nullptr)
            return;
        for (const auto &seen : out) {
            if (seen == *fields)
                return;
        }
        out.push_back(*fields);
    };
    for (const std::string &id : knownGrids()) {
        for (const GridRowSpec &row : findGrid(id)->rows)
            add(*makeRowPredictor(row));
    }
    for (const std::string &spec : knownPredictorSpecs()) {
        if (spec.find(':') == std::string::npos && spec != "tournament")
            add(*makePredictor(spec));
    }
    return out;
}

std::string
describe(const std::vector<SkewField> &fields)
{
    std::string out;
    for (const SkewField &f : fields) {
        out += "[t" + std::to_string(f.table) + " n" + std::to_string(f.n)
            + " h" + std::to_string(f.histLen) + " fold"
            + std::to_string(f.fold) + "]";
    }
    return out;
}

::testing::AssertionResult
matchesReference(const SkewIndexTables &tables, uint64_t pc, uint64_t hist,
                 uint64_t bim_fold, uint64_t gskew_fold)
{
    size_t got[Gf2IndexTables::kMaxFields];
    tables.indices(pc, hist, bim_fold, gskew_fold, got);
    const std::vector<SkewField> &fields = tables.fields();
    for (size_t i = 0; i < fields.size(); ++i) {
        const uint64_t want =
            fields[i].reference(pc, hist, bim_fold, gskew_fold);
        if (got[i] != want) {
            return ::testing::AssertionFailure()
                << "table " << i << ": compiled " << got[i]
                << ", reference " << want;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(IndexTables, CoverEveryBuiltGeometry)
{
    const auto geometries = builtGeometries();
    bool two_words = false, address_only_bim = false, egskew = false;
    bool ev8size = false;
    for (const auto &fields : geometries) {
        const SkewIndexTables tables(fields);
        two_words |= tables.map().words() == 2;
        address_only_bim |= fields[0].histLen == 0 && fields.size() == 4;
        egskew |= fields.size() == 3 && fields[0].n == 16;
        ev8size |= fields.size() == 4 && fields[0].n == 14
            && fields[0].histLen == 4;
    }
    // fig5/6/7/8, the update-policy, banking and fig10 geometries.
    EXPECT_GE(geometries.size(), 20u);
    EXPECT_TRUE(two_words) << "fig10's 4*1M tables need 32-bit fields";
    EXPECT_TRUE(address_only_bim);
    EXPECT_TRUE(egskew) << "e-gskew 3*64K";
    EXPECT_TRUE(ev8size);
}

TEST(IndexTables, SkewGeometriesMatchReferenceOnEveryUnitVector)
{
    for (const auto &fields : builtGeometries()) {
        const SkewIndexTables tables(fields);
        for (unsigned input = 0; input < 4; ++input) {
            for (unsigned b = 0; b < 64; ++b) {
                uint64_t in[4] = {};
                in[input] = uint64_t{1} << b;
                ASSERT_TRUE(
                    matchesReference(tables, in[0], in[1], in[2], in[3]))
                    << describe(fields) << " input " << input << " bit "
                    << b;
            }
        }
    }
}

TEST(IndexTables, SkewGeometriesMatchReferenceOnRandomInputs)
{
    for (const auto &fields : builtGeometries()) {
        const SkewIndexTables tables(fields);
        Rng rng(2002);
        for (int i = 0; i < 100000; ++i) {
            ASSERT_TRUE(matchesReference(tables, rng.next(), rng.next(),
                                         rng.next(), rng.next()))
                << describe(fields) << " random input " << i;
        }
    }
}

TEST(IndexTables, IndexerCachesMatchUncachedTables)
{
    // A short walk whose pc high bits, history and folds move at
    // different rates: every cached contribution must stay current.
    for (const auto &fields : builtGeometries()) {
        const auto tables = SkewIndexTables::shared(fields);
        SkewIndexer indexer(tables);
        Rng rng(7);
        uint64_t pc = 0x120000000, hist = 0, bim = 0, gskew = 0;
        for (int i = 0; i < 2000; ++i) {
            pc += 4 * rng.below(64);
            if (rng.chance(0.05))
                pc = rng.next();
            if (rng.chance(0.5))
                hist = (hist << 1) | rng.below(2);
            if (rng.chance(0.2)) {
                bim = rng.next();
                gskew = rng.next();
                indexer.setFolds(bim, gskew);
            }
            size_t got[Gf2IndexTables::kMaxFields];
            size_t want[Gf2IndexTables::kMaxFields];
            indexer.indices(pc, hist, got);
            tables->indices(pc, hist, bim, gskew, want);
            for (size_t f = 0; f < fields.size(); ++f)
                ASSERT_EQ(got[f], want[f]) << describe(fields) << " " << i;
        }
    }
}

TEST(IndexTables, SharedTablesArePerGeometry)
{
    const std::vector<SkewField> a = {{0, 12, 0}, {1, 12, 9}, {2, 12, 9}};
    std::vector<SkewField> b = a;
    b[2].histLen = 10;
    const auto a1 = SkewIndexTables::shared(a);
    const auto a2 = SkewIndexTables::shared(a);
    const auto b1 = SkewIndexTables::shared(b);
    EXPECT_EQ(a1.get(), a2.get());
    EXPECT_NE(a1.get(), b1.get());
    EXPECT_EQ(b1->fields(), b);
}

TEST(IndexTables, NonLinearReferenceThrows)
{
    // An AND of two input bits: every unit vector maps to 0, but the
    // random vectors expose it.
    EXPECT_THROW(Gf2IndexTables({"x"}, {8},
                                [](const Gf2IndexTables::Inputs &in) {
                                    return Gf2IndexTables::Fields{
                                        (in[0] & (in[0] >> 1)) & 0xff};
                                }),
                 std::logic_error);
    // A skewed index whose address and history meet in a carrying add
    // instead of an XOR.
    EXPECT_THROW(Gf2IndexTables({"pc", "hist"}, {12, 12},
                                [](const Gf2IndexTables::Inputs &in) {
                                    const uint64_t v =
                                        (xorFold(in[0] >> 2, 12)
                                         + xorFold(in[1] & mask(21), 12))
                                        & mask(12);
                                    return Gf2IndexTables::Fields{
                                        v, skewH(v, 12)};
                                }),
                 std::logic_error);
    // The linear map itself compiles.
    EXPECT_NO_THROW(Gf2IndexTables({"pc", "hist"}, {12},
                                   [](const Gf2IndexTables::Inputs &in) {
                                       return Gf2IndexTables::Fields{
                                           xorFold(in[0] >> 2, 12)
                                           ^ xorFold(in[1] & mask(21), 12)};
                                   }));
}

TEST(IndexTables, RefusesIndicesWiderThanTheirField)
{
    EXPECT_THROW(Gf2IndexTables({"x"}, {8},
                                [](const Gf2IndexTables::Inputs &in) {
                                    return Gf2IndexTables::Fields{
                                        in[0] & 0x1ff};
                                }),
                 std::logic_error);
    EXPECT_THROW(Gf2IndexTables({"x"}, {33},
                                [](const Gf2IndexTables::Inputs &) {
                                    return Gf2IndexTables::Fields{};
                                }),
                 std::invalid_argument);
}

TEST(IndexTables, RejectsGeometriesTheReferenceDoesNotCover)
{
    EXPECT_THROW(SkewIndexTables({{1, 33, 10}}), std::invalid_argument);
    EXPECT_THROW(SkewIndexTables({{1, 1, 10}}), std::invalid_argument);
    EXPECT_THROW(SkewIndexTables({{1, 12, 64}}), std::invalid_argument);
    EXPECT_NO_THROW(SkewIndexTables({{0, 1, 0}}));
    EXPECT_NO_THROW(SkewIndexTables({{1, 32, 63}}));

    // Refused before the 2^33-entry banks would be allocated.
    TwoBcGskewConfig cfg = TwoBcGskewConfig::symmetric(12, 0, 9, 11, 14,
                                                       "too wide");
    cfg.tables[G1].log2Pred = 33;
    EXPECT_THROW(TwoBcGskewPredictor{cfg}, std::invalid_argument);
    EXPECT_THROW(EgskewPredictor(40, 12), std::invalid_argument);
}

} // namespace
} // namespace ev8
