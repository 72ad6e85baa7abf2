#include "core/ev8_predictor.hh"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "obs/metrics.hh"

namespace ev8
{

namespace
{

/** The wordline field (i10..i5) of a flat entry index. */
constexpr unsigned
wordlineOf(size_t idx)
{
    return static_cast<unsigned>((idx >> 5) & (kEv8Wordlines - 1));
}

/**
 * The 8-bit prediction word of a flat entry index: the bits at in-word
 * offsets 0..7 sit 4 apart (offset is i4..i2) in one 32-bit run of the
 * bitplane, so one word load and three shift-or steps gather them.
 */
uint8_t
predWordAt(const SplitCounterArray &bank, size_t idx)
{
    const size_t base = idx & ~size_t{0x1c};
    uint64_t w = (bank.predWords()[base / 64] >> (base % 64)) & 0x11111111;
    w = (w | (w >> 3)) & 0x03030303;
    w = (w | (w >> 6)) & 0x000f000f;
    return static_cast<uint8_t>(w | (w >> 12));
}

} // namespace

template <bool Tracked>
struct Ev8Predictor::Facade
{
    std::array<SplitCounterArray, kNumTables> &arrays;
    Ev8AccessStats &access;

    bool
    taken(TableId t, size_t idx) const
    {
        if constexpr (Tracked)
            access.notePredRead(t, wordlineOf(idx));
        return arrays[t].taken(idx);
    }

    /** Partial-update strengthen: the prediction bit is read and
     *  copied into the hysteresis bit, a hysteresis-only write
     *  (Section 4.3). */
    void
    strengthen(TableId t, size_t idx)
    {
        if constexpr (Tracked) {
            access.notePredRead(t, wordlineOf(idx));
            ++access.tables[t].hystWrites;
        }
        arrays[t].strengthen(idx);
    }

    /** Full 2-bit step: both bits are read; the hysteresis bit is
     *  always written, the prediction bit only when it flips (a
     *  misprediction-path access, Section 4.3). */
    void
    update(TableId t, size_t idx, bool v)
    {
        if constexpr (Tracked) {
            const bool p = arrays[t].taken(idx);
            Ev8AccessStats::Table &a = access.tables[t];
            access.notePredRead(t, wordlineOf(idx));
            ++a.hystReads;
            ++a.hystWrites;
            a.predWrites += p != v && arrays[t].rawHyst(idx) != p;
        }
        arrays[t].update(idx, v);
    }
};

Ev8Predictor::Ev8Predictor(const Ev8Config &config)
    : cfg(config), tables(&Ev8IndexTables::forMode(config.wordline))
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        const auto id = static_cast<TableId>(t);
        const size_t entries = size_t{1} << ev8IndexBits(id);
        banks[t] = SplitCounterArray(
            entries, entries / (ev8PredColumns(id) / ev8HystColumns(id)));
    }
}

Ev8IndexInput
Ev8Predictor::indexInput(const BranchSnapshot &snap)
{
    Ev8IndexInput in;
    in.blockAddr = snap.blockAddr;
    in.hist = snap.hist.indexHist;
    in.zAddr = snap.hist.pathZ;
    in.bank = snap.bank;
    return in;
}

uint64_t
Ev8Predictor::blockIndices(const BranchSnapshot &snap)
{
    if (snap.blockAddr != cachedBlockAddr
        || snap.hist.indexHist != cachedHist
        || snap.hist.pathZ != cachedPathZ || snap.bank != cachedBank) {
        cachedBlockAddr = snap.blockAddr;
        cachedHist = snap.hist.indexHist;
        cachedPathZ = snap.hist.pathZ;
        cachedBank = snap.bank;
        cachedIndices = tables->packed(indexInput(snap));
    }
    return cachedIndices;
}

size_t
Ev8Predictor::tableIndex(TableId table, const BranchSnapshot &snap) const
{
    return Ev8IndexTables::entry(
        Ev8IndexTables::atBranch(tables->packed(indexInput(snap)),
                                 snap.pc),
        table);
}

bool
Ev8Predictor::predict(const BranchSnapshot &snap)
{
    const uint64_t packed =
        Ev8IndexTables::atBranch(blockIndices(snap), snap.pc);
    for (unsigned t = 0; t < kNumTables; ++t)
        last.idx[t] = Ev8IndexTables::entry(packed, TableId(t));
    if (statsEnabled())
        computeGskewVotes(Facade<true>{banks, access}, last);
    else
        computeGskewVotes(Facade<false>{banks, access}, last);
    return last.overall;
}

void
Ev8Predictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    assert(last.idx[G1] == tableIndex(G1, snap));
    (void)snap;
    auto train = [&](auto facade) {
        if (cfg.partialUpdate)
            gskewPartialUpdate(facade, last, taken);
        else
            gskewTotalUpdate(facade, last, taken);
    };
    if (statsEnabled()) {
        stats.note(last, taken);
        train(Facade<true>{banks, access});
    } else {
        train(Facade<false>{banks, access});
    }
}

Ev8BlockPrediction
Ev8Predictor::predictBlock(const Ev8IndexInput &in) const
{
    Ev8BlockPrediction out;
    const uint64_t packed = tables->packed(in);
    std::array<uint8_t, kNumTables> words{};
    for (unsigned t = 0; t < kNumTables; ++t) {
        const auto id = static_cast<TableId>(t);
        out.coords[t] = Ev8IndexTables::coords(packed, id);
        words[t] = predWordAt(banks[t], Ev8IndexTables::entry(packed, id));
        if (statsEnabled())
            access.notePredRead(id, out.coords[t].wordline);
    }
    for (unsigned offset = 0; offset < Ev8BlockPrediction::kSlots;
         ++offset) {
        // The unshuffle: the instruction at in-block offset o consumes
        // bit (o XOR u_table) of each table's word.
        auto bitOf = [&](TableId t) {
            const unsigned pos = offset ^ (out.coords[t].unshuffle & 7);
            return ((words[t] >> pos) & 1) != 0;
        };
        const bool bim = bitOf(BIM);
        const bool g0 = bitOf(G0);
        const bool g1 = bitOf(G1);
        const bool meta = bitOf(META);
        const bool majority =
            (static_cast<int>(bim) + g0 + g1) >= 2;
        out.takenAtOffset[offset] = meta ? majority : bim;
    }
    return out;
}

uint64_t
Ev8Predictor::storageBits() const
{
    uint64_t bits = 0;
    for (const SplitCounterArray &bank : banks)
        bits += bank.storageBits();
    return bits;
}

std::string
Ev8Predictor::name() const
{
    return cfg.label;
}

VoteSnapshot
Ev8Predictor::lastVotes() const
{
    VoteSnapshot v;
    v.valid = true;
    v.bim = last.bimPred;
    v.g0 = last.g0Pred;
    v.g1 = last.g1Pred;
    v.meta = last.metaPred;
    v.majority = last.majority;
    return v;
}

void
Ev8Predictor::publishMetrics(MetricRegistry &registry,
                             const std::string &prefix) const
{
    publishGskewVoteStats(registry, prefix, stats);
    access.publishMetrics(registry, prefix + ".storage");
}

void
Ev8Predictor::reset()
{
    for (SplitCounterArray &bank : banks)
        bank.reset();
    stats = GskewVoteStats{};
    access = Ev8AccessStats{};
}

void
Ev8AccessStats::publishMetrics(MetricRegistry &registry,
                               const std::string &prefix) const
{
    static const char *const names[kNumTables] = {"bim", "g0", "g1",
                                                  "meta"};
    for (unsigned t = 0; t < kNumTables; ++t) {
        const std::string base = prefix + "." + names[t];
        const Table &a = tables[t];
        registry.counter(base + ".pred_reads").inc(a.predReads);
        registry.counter(base + ".pred_writes").inc(a.predWrites);
        registry.counter(base + ".hyst_reads").inc(a.hystReads);
        registry.counter(base + ".hyst_writes").inc(a.hystWrites);

        const auto &wl = a.wordlineReads;
        const uint64_t max =
            *std::max_element(wl.begin(), wl.end());
        const uint64_t total =
            std::accumulate(wl.begin(), wl.end(), uint64_t{0});
        registry.gauge(base + ".wordline_max_reads")
            .set(static_cast<double>(max));
        registry.gauge(base + ".wordline_mean_reads")
            .set(static_cast<double>(total) / kEv8Wordlines);
    }
}

} // namespace ev8
