/**
 * @file
 * The EV8 predictor index functions of Section 7.
 *
 * Hardware constraints shape everything here:
 *
 *  - 8 index bits are shared by all four logical tables: the bank number
 *    (i1, i0), computed a cycle ahead (Section 6.2), and the wordline
 *    number (i10..i5), which feeds the array decoder directly and
 *    therefore cannot be hashed at all;
 *  - column bits (i15..i11 for G0/G1/Meta, i13..i11 for BIM) may each
 *    use at most one 2-entry XOR gate (one cycle phase);
 *  - the in-word bit position (i4..i2) goes through the "unshuffle" XOR
 *    permutation whose parameter may be an arbitrarily deep XOR tree
 *    (a whole cycle is available to compute it).
 *
 * Equation provenance: the published equations for the G1 and Meta
 * columns and unshuffles, the wordline, and the G0/Meta sharing of
 * i15/i14 are implemented verbatim. Three spots are typographically
 * garbled in the archival text and are reconstructed here following the
 * paper's own design principles (Section 7.5): the BIM extra bits, the
 * G0 column bits i13..i11, and the G0 unshuffle bit i4 (plus the
 * branch-offset terms a4/a3 that the OCR dropped). Each reconstruction
 * is marked "[reconstructed]" below.
 */

#ifndef EV8_CORE_INDEX_FUNCTIONS_HH
#define EV8_CORE_INDEX_FUNCTIONS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/gf2_index.hh"
#include "predictors/gskew_policy.hh"

namespace ev8
{

/** How the shared (unhashed) wordline number is chosen -- Fig. 9. */
enum class WordlineMode
{
    /**
     * The EV8 choice: 4 lghist bits + 2 block address bits,
     * (i10..i5) = (h3, h2, h1, h0, a8, a7). This is why the BIM table
     * is "indexed using a 4-bit history length" (Section 4.7).
     */
    Ev8,

    /**
     * The rejected alternative: block address bits only. Simulations
     * showed the access distribution over the BIM table (and the shared
     * wordlines) was unbalanced -- some regions congested, others idle.
     */
    AddressOnly,
};

/** Per-fetch-block inputs to the index functions. */
struct Ev8IndexInput
{
    uint64_t blockAddr = 0; //!< A: address of the fetch block
    uint64_t hist = 0;      //!< H: three-blocks-old lghist (h20..h0)
    uint64_t zAddr = 0;     //!< Z: address of the previous fetch block
    unsigned bank = 0;      //!< (i1,i0) from the bank-number computation
};

/** Physical coordinates of one 8-bit prediction word. */
struct Ev8WordCoords
{
    unsigned bank = 0;      //!< 0..3
    unsigned wordline = 0;  //!< 0..63
    unsigned column = 0;    //!< 0..31 (G0/G1/Meta) or 0..7 (BIM)
    unsigned unshuffle = 0; //!< 3-bit XOR-permutation parameter u
};

/** Column bits per table: 5 for G0/G1/Meta, 3 for BIM. */
constexpr unsigned ev8ColumnBits(TableId table)
{
    return table == BIM ? 3 : 5;
}

/** log2 of a table's prediction entries: 14 for BIM, 16 otherwise. */
constexpr unsigned ev8IndexBits(TableId table)
{
    return 2 + 3 + 6 + ev8ColumnBits(table);
}

/** Wordlines per bank. */
constexpr unsigned kEv8Wordlines = 64;

/** Prediction-array columns (8-bit words per wordline) per table. */
constexpr unsigned
ev8PredColumns(TableId table)
{
    return table == BIM ? 8 : 32;
}

/** Hysteresis-array columns per table: half size for G0 and Meta. */
constexpr unsigned
ev8HystColumns(TableId table)
{
    switch (table) {
      case BIM: return 8;
      case G0: return 16;
      case G1: return 32;
      case META: return 16;
      default: return 0;
    }
}

/** Computes the word coordinates for @p table under @p mode. */
Ev8WordCoords ev8WordCoords(TableId table, const Ev8IndexInput &in,
                            WordlineMode mode);

/**
 * The in-word bit position of a branch: its own PC offset bits
 * (a4, a3, a2) passed through the XOR unshuffle permutation.
 */
constexpr unsigned
ev8BitOffset(uint64_t branch_pc, unsigned unshuffle)
{
    return (static_cast<unsigned>(branch_pc >> 2) & 7) ^ (unshuffle & 7);
}

/**
 * Flat entry index with the paper's bit layout:
 * (i1,i0) bank, (i4..i2) offset, (i10..i5) wordline, (i15..i11) column.
 * The most significant bit is the top column bit, so dropping the MSB
 * (what the half-size hysteresis arrays do, Section 4.4) halves the
 * column space -- exactly the hardware behaviour.
 */
size_t ev8EntryIndex(TableId table, const Ev8IndexInput &in,
                     uint64_t branch_pc, WordlineMode mode);

/** Decomposes a flat index back into coordinates (offset via u = 0). */
Ev8WordCoords ev8DecomposeIndex(TableId table, size_t index);

/** The in-word offset field (i4..i2) of a flat index. */
constexpr unsigned
ev8IndexOffset(size_t index)
{
    return static_cast<unsigned>((index >> 2) & 7);
}

/**
 * The index functions of one WordlineMode, compiled to byte tables.
 *
 * Every index bit above is an XOR of address, lghist and path bits, so
 * the map from (A, H, Z) to the four tables' word coordinates is linear
 * over GF(2). The shared index compiler (common/gf2_index.hh) derives
 * the tables from ev8WordCoords() itself, which stays the reference.
 * Under WordlineMode::Ev8, six lookups (two for A bits 5-15, three for
 * H bits 0-20, one for Z bits 5-6) replace about 80 single-bit
 * extractions per table.
 *
 * Packed layout: table t owns bits [16t, 16t+16) of one uint64_t and
 * holds its ev8EntryIndex() for a branch at in-block offset 0 -- the
 * bank, the unshuffle parameter u in the offset field, the wordline
 * and the column.
 */
class Ev8IndexTables
{
  public:
    /** The tables of @p mode, derived once per process. */
    static const Ev8IndexTables &forMode(WordlineMode mode);

    /** Every table's packed entry index at in-block offset 0. */
    uint64_t
    packed(const Ev8IndexInput &in) const
    {
        return ((in.bank & 3) * kLaneOne)
            ^ map.eval<1>({in.blockAddr, in.hist, in.zAddr})[0];
    }

    /** Moves a packed() word to the in-block offset of @p branch_pc:
     *  each offset field becomes (a4,a3,a2) XOR u. */
    static constexpr uint64_t
    atBranch(uint64_t packed, uint64_t branch_pc)
    {
        return packed ^ (((branch_pc >> 2) & 7) * (kLaneOne << 2));
    }

    /** Table @p table's entry index in a packed word. */
    static constexpr size_t
    entry(uint64_t packed, TableId table)
    {
        return static_cast<size_t>((packed >> (16 * table)) & 0xffff);
    }

    /** Table @p table's word coordinates in a packed() word. */
    static Ev8WordCoords coords(uint64_t packed, TableId table);

  private:
    explicit Ev8IndexTables(WordlineMode mode);

    static constexpr uint64_t kLaneOne = 0x0001000100010001ULL;

    //! Inputs (A, H, Z); the bank is XORed in by packed().
    Gf2IndexTables map;
};

} // namespace ev8

#endif // EV8_CORE_INDEX_FUNCTIONS_HH
