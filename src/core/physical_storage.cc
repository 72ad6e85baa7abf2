#include "core/physical_storage.hh"

#include <cassert>

namespace ev8
{

static_assert(Ev8PhysicalStorage::storageBits() == 352 * 1024,
              "the EV8 predictor is 352 Kbits (208K pred + 144K hyst)");

Ev8PhysicalStorage::Ev8PhysicalStorage()
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        const auto id = static_cast<TableId>(t);
        pred[t].assign(size_t{4} * kEv8Wordlines * ev8PredColumns(id) * 8,
                       0);
        hyst[t].assign(size_t{4} * kEv8Wordlines * ev8HystColumns(id) * 8,
                       1);
    }
}

size_t
Ev8PhysicalStorage::predBitIndex(TableId table, const Ev8WordCoords &c,
                                 unsigned bitpos) const
{
    const unsigned cols = ev8PredColumns(table);
    assert(c.bank < 4 && c.wordline < kEv8Wordlines && c.column < cols
           && bitpos < 8);
    return ((static_cast<size_t>(c.bank) * kEv8Wordlines + c.wordline)
            * cols + c.column) * 8 + bitpos;
}

size_t
Ev8PhysicalStorage::hystBitIndex(TableId table, const Ev8WordCoords &c,
                                 unsigned bitpos) const
{
    const unsigned cols = ev8HystColumns(table);
    const unsigned column = c.column & (cols - 1); // drop the index MSB
    assert(c.bank < 4 && c.wordline < kEv8Wordlines && bitpos < 8);
    return ((static_cast<size_t>(c.bank) * kEv8Wordlines + c.wordline)
            * cols + column) * 8 + bitpos;
}

uint8_t
Ev8PhysicalStorage::readPredWord(TableId table, const Ev8WordCoords &c) const
{
    access.notePredRead(table, c.wordline);
    uint8_t word = 0;
    for (unsigned b = 0; b < 8; ++b)
        word |= static_cast<uint8_t>(pred[table][predBitIndex(table, c, b)]
                                     << b);
    return word;
}

bool
Ev8PhysicalStorage::readPredBit(TableId table, const Ev8WordCoords &c,
                                unsigned bitpos) const
{
    access.notePredRead(table, c.wordline);
    return pred[table][predBitIndex(table, c, bitpos)] != 0;
}

void
Ev8PhysicalStorage::writePredBit(TableId table, const Ev8WordCoords &c,
                                 unsigned bitpos, bool value)
{
    ++access.tables[table].predWrites;
    pred[table][predBitIndex(table, c, bitpos)] = value ? 1 : 0;
}

bool
Ev8PhysicalStorage::readHystBit(TableId table, const Ev8WordCoords &c,
                                unsigned bitpos) const
{
    ++access.tables[table].hystReads;
    return hyst[table][hystBitIndex(table, c, bitpos)] != 0;
}

void
Ev8PhysicalStorage::writeHystBit(TableId table, const Ev8WordCoords &c,
                                 unsigned bitpos, bool value)
{
    ++access.tables[table].hystWrites;
    hyst[table][hystBitIndex(table, c, bitpos)] = value ? 1 : 0;
}

void
Ev8PhysicalStorage::reset()
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        pred[t].assign(pred[t].size(), 0);
        hyst[t].assign(hyst[t].size(), 1);
    }
    access = {};
}

} // namespace ev8
