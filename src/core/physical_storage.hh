/**
 * @file
 * The physical memory organization of the EV8 branch predictor
 * (Section 7.1).
 *
 * Logically the predictor has four tables (x prediction + hysteresis),
 * but physically it is just eight memory arrays: for each of the four
 * banks, one prediction array and one hysteresis array. Each bank has
 * 64 wordlines; a wordline holds 32 8-bit prediction words for each of
 * G0, G1 and Meta plus 8 8-bit words for BIM. A prediction access
 * selects one wordline, then one 8-bit word per logical table, then
 * permutes the word's bits through the XOR unshuffle.
 *
 * Hysteresis arrays: BIM and G1 are full size; G0 and Meta have half
 * the columns -- the same index function minus its most significant
 * (column) bit, so two prediction entries share one hysteresis entry
 * (Section 4.4).
 */

#ifndef EV8_CORE_PHYSICAL_STORAGE_HH
#define EV8_CORE_PHYSICAL_STORAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/ev8_predictor.hh"
#include "core/index_functions.hh"

namespace ev8
{

/**
 * Bit-accurate model of the eight EV8 predictor memory arrays: the
 * Section 7.1 reference that tests/test_ev8_predictor.cc drives beside
 * Ev8Predictor, whose flat-indexed bitplanes must match it access for
 * access.
 *
 * Initial state is weakly not-taken everywhere: prediction bit 0,
 * hysteresis bit 1.
 */
class Ev8PhysicalStorage
{
  public:
    Ev8PhysicalStorage();

    /** Reads one full 8-bit prediction word (one array access). */
    uint8_t readPredWord(TableId table, const Ev8WordCoords &c) const;

    /** Reads/writes a single prediction bit. */
    bool readPredBit(TableId table, const Ev8WordCoords &c,
                     unsigned bitpos) const;
    void writePredBit(TableId table, const Ev8WordCoords &c,
                      unsigned bitpos, bool value);

    /**
     * Reads/writes a hysteresis bit. The column is internally reduced
     * to the hysteresis array's column count (dropping the index MSB),
     * which is where the sharing of Section 4.4 happens.
     */
    bool readHystBit(TableId table, const Ev8WordCoords &c,
                     unsigned bitpos) const;
    void writeHystBit(TableId table, const Ev8WordCoords &c,
                      unsigned bitpos, bool value);

    /** Total bits: 208 Kbits prediction + 144 Kbits hysteresis. */
    static constexpr uint64_t
    storageBits()
    {
        uint64_t bits = 0;
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            bits += uint64_t{4} * kEv8Wordlines * ev8PredColumns(id) * 8;
            bits += uint64_t{4} * kEv8Wordlines * ev8HystColumns(id) * 8;
        }
        return bits;
    }

    void reset();

    /** Every access since construction or reset(). */
    const Ev8AccessStats &accessStats() const { return access; }

  private:
    size_t predBitIndex(TableId table, const Ev8WordCoords &c,
                        unsigned bitpos) const;
    size_t hystBitIndex(TableId table, const Ev8WordCoords &c,
                        unsigned bitpos) const;

    // One byte per bit: the plainest model, for a reference.
    std::array<std::vector<uint8_t>, kNumTables> pred;
    std::array<std::vector<uint8_t>, kNumTables> hyst;

    // Access tallies; mutable because reads are logically const.
    mutable Ev8AccessStats access;
};

/**
 * Checks the single-ported constraint: within one cycle (two fetch
 * blocks), no bank may be accessed twice. The bank-number computation
 * of Section 6.2 guarantees this by construction; the checker verifies
 * it dynamically in tests and the banking bench.
 */
class SinglePortChecker
{
  public:
    /** Starts a new cycle (two fetch-block slots). */
    void
    beginCycle()
    {
        accessed.fill(false);
    }

    /**
     * Registers an access to @p bank. Returns false if the bank was
     * already accessed this cycle (a port conflict).
     */
    bool
    access(unsigned bank)
    {
        if (accessed[bank & 0x3])
            return false;
        accessed[bank & 0x3] = true;
        return true;
    }

  private:
    std::array<bool, 4> accessed{};
};

} // namespace ev8

#endif // EV8_CORE_PHYSICAL_STORAGE_HH
