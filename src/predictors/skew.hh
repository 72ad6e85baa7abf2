/**
 * @file
 * The inter-bank dispersing hash family used by skewed predictors.
 *
 * Section 8.1.1: "indexing functions from the family presented in
 * [17, 15] were used for all predictors" when experimenting with history
 * lengths wider than log2 of the table size. The family builds on an
 * invertible one-bit-feedback map H (and its inverse H') over n-bit
 * values; bank i of a skewed structure is indexed with
 *
 *     f_i(v1, v2) = H^i(v1) XOR H'^i(v2)
 *
 * where (v1, v2) are two n-bit slices of the (address, history)
 * information vector. The H^i being distinct bijections gives the
 * defining skewed-cache property: two vectors that conflict in one bank
 * are unlikely to conflict in another.
 */

#ifndef EV8_PREDICTORS_SKEW_HH
#define EV8_PREDICTORS_SKEW_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/gf2_index.hh"

namespace ev8
{

/**
 * Builds the two n-bit information slices from a branch/block address
 * and a global history of @p hist_len bits. The history occupies the
 * "v2" slice (folded when longer than n); the address, XOR-folded with
 * the overflowing history, forms "v1". This deliberately mixes a large
 * number of information bits into every index bit, the "complete hash"
 * reference point of Fig. 9.
 */
struct SkewSlices
{
    uint64_t v1;
    uint64_t v2;
};

SkewSlices makeSkewSlices(uint64_t addr, uint64_t hist, unsigned hist_len,
                          unsigned n);

/**
 * Index of bank @p table (0-based) into a 2^n-entry table for the given
 * information vector. Table 0 degenerates to v1 XOR v2.
 */
uint64_t skewIndex(unsigned table, uint64_t addr, uint64_t hist,
                   unsigned hist_len, unsigned n);

/**
 * Address-only index (the bimodal component of skewed hybrids): the
 * fetch-granular address bits folded to n.
 */
uint64_t addressIndex(uint64_t addr, unsigned n);

/** One table of a skewed predictor, as the reference indexes it. */
struct SkewField
{
    //! Path fold XORed into the address before indexing.
    enum Fold : unsigned
    {
        NoFold,
        BimFold,   //!< 2Bc-gskew's BIM path fold
        GskewFold, //!< 2Bc-gskew's G0/G1/Meta path fold
    };

    unsigned table = 0;   //!< skewIndex() bijection pair H^t / H'^t
    unsigned n = 0;       //!< index width: log2 of the table entries
    unsigned histLen = 0; //!< history bits (table 0 with 0: addressIndex())
    Fold fold = NoFold;

    bool operator==(const SkewField &) const = default;

    /** The reference index: addressIndex() for an address-only table
     *  0, skewIndex() otherwise, over pc ^ the selected fold. */
    uint64_t reference(uint64_t pc, uint64_t hist, uint64_t bim_fold,
                       uint64_t gskew_fold) const;
};

/**
 * A skewed predictor's index functions, compiled by the GF(2) index
 * compiler from SkewField::reference(). xorFold, H and H' are XOR-linear,
 * so every table's index is a linear function of the inputs below,
 * and the compiled tables return all the tables' indices from a few
 * byte lookups instead of per-table fold loops and H/H' chains.
 *
 * The pc is split in two inputs at kPcSplit: the low bits move every
 * branch and cost two lookups; the high bits rarely move, so a
 * SkewIndexer caches their contribution.
 */
class SkewIndexTables
{
  public:
    enum Input : unsigned
    {
        PcLow,     //!< pc bits [0, kPcSplit)
        PcHigh,    //!< pc >> kPcSplit
        Hist,      //!< the index history
        BimFold,   //!< SkewField::BimFold's fold value
        GskewFold, //!< SkewField::GskewFold's fold value
    };
    static constexpr unsigned kPcSplit = 18;

    /**
     * Compiles @p fields (at most four tables).
     * @throws std::invalid_argument for a geometry the reference does
     *         not cover: n outside [1, 32], n < 2 with a history or a
     *         skewing chain, or a history longer than 63 bits
     */
    explicit SkewIndexTables(const std::vector<SkewField> &fields);

    /** The compiled tables of @p fields, shared process-wide: lanes
     *  and predictors of one geometry compile it once. */
    static std::shared_ptr<const SkewIndexTables>
    shared(const std::vector<SkewField> &fields);

    const std::vector<SkewField> &fields() const { return fields_; }
    const Gf2IndexTables &map() const { return map_; }

    /** Every table's index for one branch, from the compiled tables
     *  (no cache). */
    void indices(uint64_t pc, uint64_t hist, uint64_t bim_fold,
                 uint64_t gskew_fold, size_t *out) const;

  private:
    std::vector<SkewField> fields_;
    Gf2IndexTables map_;
};

/**
 * Per-predictor evaluation state over shared SkewIndexTables. The
 * contributions of the slow inputs are cached on their values: the pc
 * high bits, the index history (it moves once per fetch block under
 * lghist) and the path folds (set once per block by the predictor's
 * path cache). A branch then pays the two pc-low lookups plus whatever
 * moved. Every cache starts at input 0, whose contribution a linear
 * map sends to 0.
 */
class SkewIndexer
{
  public:
    explicit SkewIndexer(std::shared_ptr<const SkewIndexTables> tables);

    const SkewIndexTables &tables() const { return *tables_; }

    /** Sets the path folds' contribution. */
    void setFolds(uint64_t bim_fold, uint64_t gskew_fold);

    /** Every table's index for a branch at @p pc with @p hist. */
    void
    indices(uint64_t pc, uint64_t hist, size_t *out)
    {
        if (words_ == 1)
            indicesOf<1>(pc, hist, out);
        else
            indicesOf<2>(pc, hist, out);
    }

  private:
    template <unsigned W>
    void
    indicesOf(uint64_t pc, uint64_t hist, size_t *out)
    {
        using In = SkewIndexTables::Input;
        const uint64_t high = pc >> SkewIndexTables::kPcSplit;
        if (high != pcHigh_) {
            pcHigh_ = high;
            pcHighTerm_ = map_->wideTerm(In::PcHigh, high);
        }
        if (hist != hist_) {
            hist_ = hist;
            const auto t = map_->term<W>(In::Hist, hist);
            std::copy(t.begin(), t.end(), histTerm_.begin());
        }
        auto packed = map_->term<W>(In::PcLow, pc);
        for (unsigned w = 0; w < W; ++w)
            packed[w] ^= pcHighTerm_[w] ^ histTerm_[w] ^ foldTerm_[w];
        for (unsigned f = 0; f < fields_; ++f)
            out[f] = static_cast<size_t>(
                Gf2IndexTables::field<W>(packed, f));
    }

    std::shared_ptr<const SkewIndexTables> tables_;
    const Gf2IndexTables *map_;
    unsigned words_, fields_;
    uint64_t pcHigh_ = 0, hist_ = 0;
    Gf2IndexTables::Packed<2> pcHighTerm_{}, histTerm_{}, foldTerm_{};
};

} // namespace ev8

#endif // EV8_PREDICTORS_SKEW_HH
