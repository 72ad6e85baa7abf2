#include "predictors/skew.hh"

#include <cassert>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/bits.hh"

namespace ev8
{

SkewSlices
makeSkewSlices(uint64_t addr, uint64_t hist, unsigned hist_len, unsigned n)
{
    assert(n >= 2 && n < 64);
    assert(hist_len <= 63);

    const uint64_t a = addr >> 2; // instruction-granular address
    const uint64_t h = hist & mask(hist_len);

    // v1 carries the address, v2 the history (each XOR-folded to n
    // bits). Keeping the components in separate slices guarantees --
    // by linearity of the fold and bijectivity of H/H' -- that any
    // single-bit change of either component always moves the index
    // (Section 7.5, principle 2).
    const uint64_t v1 = xorFold(a, n);
    const uint64_t v2 = hist_len == 0 ? 0 : xorFold(h, n);
    return {v1 & mask(n), v2 & mask(n)};
}

uint64_t
skewIndex(unsigned table, uint64_t addr, uint64_t hist, unsigned hist_len,
          unsigned n)
{
    const SkewSlices s = makeSkewSlices(addr, hist, hist_len, n);
    return skewHPow(s.v1, table, n) ^ skewHInvPow(s.v2, table, n);
}

uint64_t
addressIndex(uint64_t addr, unsigned n)
{
    return xorFold(addr >> 2, n);
}

uint64_t
SkewField::reference(uint64_t pc, uint64_t hist, uint64_t bim_fold,
                     uint64_t gskew_fold) const
{
    const uint64_t addr = pc
        ^ (fold == BimFold ? bim_fold : fold == GskewFold ? gskew_fold : 0);
    if (table == 0 && histLen == 0)
        return addressIndex(addr, n);
    return skewIndex(table, addr, hist, histLen, n);
}

namespace
{

/** Refuses the geometries skewIndex()/addressIndex() do not cover. */
const std::vector<SkewField> &
checkedFields(const std::vector<SkewField> &fields)
{
    for (const SkewField &f : fields) {
        const bool address_only = f.table == 0 && f.histLen == 0;
        if (f.n < 1 || f.n > Gf2IndexTables::kMaxFieldBits
            || (f.n < 2 && !address_only) || f.histLen > 63) {
            throw std::invalid_argument(
                "skewed index: table " + std::to_string(f.table)
                + " has log2 entries " + std::to_string(f.n)
                + " and history " + std::to_string(f.histLen)
                + "; need 1..32 index bits (2..32 with a history or a "
                  "skewing chain) and at most 63 history bits");
        }
    }
    return fields;
}

} // namespace

SkewIndexTables::SkewIndexTables(const std::vector<SkewField> &fields)
    : fields_(checkedFields(fields)),
      map_({"pc_low", "pc_high", "hist", "bim_fold", "gskew_fold"},
           [&] {
               std::vector<unsigned> bits;
               for (const SkewField &f : fields)
                   bits.push_back(f.n);
               return bits;
           }(),
           [&](const Gf2IndexTables::Inputs &in) {
               const uint64_t pc = (in[PcLow] & mask(kPcSplit))
                   ^ (in[PcHigh] << kPcSplit);
               Gf2IndexTables::Fields out{};
               for (size_t i = 0; i < fields.size(); ++i) {
                   out[i] = fields[i].reference(pc, in[Hist], in[BimFold],
                                                in[GskewFold]);
               }
               return out;
           })
{
}

std::shared_ptr<const SkewIndexTables>
SkewIndexTables::shared(const std::vector<SkewField> &fields)
{
    // A long-lived server can meet any number of geometries, so the
    // cache drops the tables no predictor holds any more once it grows
    // past a handful; the grids of one run need far fewer.
    constexpr size_t kKeepUnused = 16;
    static std::mutex lock;
    static std::vector<std::shared_ptr<const SkewIndexTables>> cache;

    const std::lock_guard<std::mutex> guard(lock);
    for (const auto &t : cache) {
        if (t->fields() == fields)
            return t;
    }
    if (cache.size() >= kKeepUnused) {
        std::erase_if(cache,
                      [](const auto &t) { return t.use_count() == 1; });
    }
    cache.push_back(std::make_shared<const SkewIndexTables>(fields));
    return cache.back();
}

void
SkewIndexTables::indices(uint64_t pc, uint64_t hist, uint64_t bim_fold,
                         uint64_t gskew_fold, size_t *out) const
{
    const Gf2IndexTables::Fields f = map_.unpacked(
        {pc, pc >> kPcSplit, hist, bim_fold, gskew_fold});
    for (size_t i = 0; i < fields_.size(); ++i)
        out[i] = static_cast<size_t>(f[i]);
}

SkewIndexer::SkewIndexer(std::shared_ptr<const SkewIndexTables> tables)
    : tables_(std::move(tables)), map_(&tables_->map()),
      words_(map_->words()), fields_(map_->fields())
{
}

void
SkewIndexer::setFolds(uint64_t bim_fold, uint64_t gskew_fold)
{
    using In = SkewIndexTables::Input;
    const auto bim = map_->wideTerm(In::BimFold, bim_fold);
    const auto gskew = map_->wideTerm(In::GskewFold, gskew_fold);
    foldTerm_ = {bim[0] ^ gskew[0], bim[1] ^ gskew[1]};
}

} // namespace ev8
