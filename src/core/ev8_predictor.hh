/**
 * @file
 * The Alpha EV8 conditional branch predictor -- the paper's artifact.
 *
 * A 352 Kbit 2Bc-gskew (Table 1 geometry), indexed with the
 * hardware-constrained functions of Sections 7.3-7.5, driven by the EV8
 * information vector (three-fetch-blocks-old lghist + path, Section 5),
 * and trained with the partial-update policy of Section 4.2.
 *
 * Storage is four flat-indexed SplitCounterArray bitplanes (44 KB).
 * The flat index keeps the banked layout of Section 7.1 in its bits --
 * bank, in-word offset, wordline, column, with the hysteresis arrays
 * dropping the column MSB -- so the bitplanes hold exactly what the
 * eight physical arrays of Ev8PhysicalStorage hold, and the access
 * tallies count exactly the array accesses those would see
 * (tests/test_ev8_predictor.cc runs both side by side). The index
 * functions are evaluated once per fetch block through
 * Ev8IndexTables; each branch then only XORs in its in-block offset.
 *
 * The class exposes two equivalent access paths:
 *  - the ConditionalBranchPredictor interface used by the trace
 *    simulator (one conditional branch at a time);
 *  - predictBlock(), the hardware-faithful path that reads one 8-bit
 *    word per logical table and produces all up-to-8 predictions of a
 *    fetch block from a single access, exactly as the arrays do.
 */

#ifndef EV8_CORE_EV8_PREDICTOR_HH
#define EV8_CORE_EV8_PREDICTOR_HH

#include <array>
#include <string>

#include "core/index_functions.hh"
#include "predictors/gskew_policy.hh"
#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

/**
 * Access tallies of the EV8 arrays: one count per read or write call
 * on a table's prediction or hysteresis array, and the prediction-array
 * reads that touched each wordline (summed over the four banks: the
 * aliasing-pressure fingerprint).
 */
struct Ev8AccessStats
{
    struct Table
    {
        uint64_t predReads = 0;
        uint64_t predWrites = 0;
        uint64_t hystReads = 0;
        uint64_t hystWrites = 0;
        std::array<uint64_t, kEv8Wordlines> wordlineReads{};
    };

    std::array<Table, kNumTables> tables{};

    /** One prediction-array read of @p wordline in @p table. */
    void
    notePredRead(TableId table, unsigned wordline)
    {
        ++tables[table].predReads;
        ++tables[table].wordlineReads[wordline];
    }

    /**
     * Publishes counters "<prefix>.<table>.{pred_reads,pred_writes,
     * hyst_reads,hyst_writes}" and gauges
     * "<prefix>.<table>.wordline_{max,mean}_reads" (table in
     * {bim,g0,g1,meta}).
     */
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const;
};

/** Configuration switches of the constrained EV8 model. */
struct Ev8Config
{
    /** Shared wordline selection (the Fig. 9 ablation axis). */
    WordlineMode wordline = WordlineMode::Ev8;

    /** Section 4.2 partial update (false = total update ablation). */
    bool partialUpdate = true;

    std::string label = "EV8";
};

/** All eight predictions of one fetch block, plus the word coordinates
 *  of the access that produced them. */
struct Ev8BlockPrediction
{
    /** Instruction slots per fetch block. */
    static constexpr unsigned kSlots = 8;

    std::array<bool, kSlots> takenAtOffset{};
    std::array<Ev8WordCoords, kNumTables> coords{};
};

class Ev8Predictor final : public ConditionalBranchPredictor
{
  public:
    explicit Ev8Predictor(const Ev8Config &config = Ev8Config{});

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;
    VoteSnapshot lastVotes() const override;

    /** Publishes vote/conflict tallies plus the arrays' access
     *  tallies ("<prefix>.storage.*", counted while stats are on). */
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const override;

    /**
     * Hardware-faithful block-wide prediction: one 8-bit word read per
     * logical table; the prediction for the instruction at in-block
     * offset o combines bit (o XOR u_table) of each table's word.
     */
    Ev8BlockPrediction predictBlock(const Ev8IndexInput &in) const;

    /** Flat entry index for one branch (exposed for tests). */
    size_t tableIndex(TableId table, const BranchSnapshot &snap) const;

    const Ev8Config &config() const { return cfg; }

    /** The array access tallies (counted while stats are on). */
    const Ev8AccessStats &accessStats() const { return access; }

    /** Direct bitplane access for white-box tests. */
    const SplitCounterArray &bank(TableId table) const
    {
        return banks[table];
    }

  private:
    /** The shared policy's Banks interface over the bitplanes; the
     *  Tracked form also tallies each access as the arrays see it. */
    template <bool Tracked>
    struct Facade;

    static Ev8IndexInput indexInput(const BranchSnapshot &snap);

    /** The packed entry indices of @p snap's fetch block, cached. */
    uint64_t blockIndices(const BranchSnapshot &snap);

    Ev8Config cfg;
    const Ev8IndexTables *tables;
    std::array<SplitCounterArray, kNumTables> banks;
    GskewLookup last;
    GskewVoteStats stats;
    //! Mutable: predictBlock() is a read and still counts its reads.
    mutable Ev8AccessStats access;

    /**
     * Every branch of a fetch block shares its (A, H, Z, bank) inputs,
     * so the table lookups run once per block and are keyed here.
     * Initial values match all-zero inputs.
     */
    uint64_t cachedBlockAddr = 0, cachedHist = 0, cachedPathZ = 0;
    unsigned cachedBank = 0;
    uint64_t cachedIndices = 0;
};

} // namespace ev8

#endif // EV8_CORE_EV8_PREDICTOR_HH
