#include "common/gf2_index.hh"

#include <stdexcept>
#include <utility>

#include "common/random.hh"

namespace ev8
{

namespace
{

/** Number of random vectors the linearity check compares on. */
constexpr int kLinearityChecks = 256;

} // namespace

Gf2IndexTables::Gf2IndexTables(std::vector<std::string> inputs,
                               std::vector<unsigned> field_bits,
                               const Reference &reference)
    : inputs_(std::move(inputs)), fieldBits_(std::move(field_bits))
{
    if (inputs_.empty() || inputs_.size() > kMaxInputs)
        throw std::invalid_argument("GF(2) index map: bad input count");
    if (fieldBits_.empty() || fieldBits_.size() > kMaxFields)
        throw std::invalid_argument("GF(2) index map: bad field count");
    for (const unsigned b : fieldBits_) {
        if (b < 1 || b > kMaxFieldBits) {
            throw std::invalid_argument("GF(2) index map: field width "
                                        + std::to_string(b)
                                        + " outside [1, 32]");
        }
        if (b > 16)
            words_ = 2;
    }
    const unsigned span = words_ == 1 ? 16 : 32;

    // Packs a reference image, refusing indices wider than their field.
    const auto pack = [&](const Fields &f) {
        std::array<uint64_t, 2> out{};
        for (unsigned i = 0; i < fieldBits_.size(); ++i) {
            if (f[i] >> fieldBits_[i]) {
                throw std::logic_error(
                    "GF(2) index map: field " + std::to_string(i)
                    + " wider than " + std::to_string(fieldBits_[i])
                    + " bits");
            }
            out[(i * span) / 64] |= f[i] << ((i * span) % 64);
        }
        return out;
    };

    // Probe every bit of every input with a unit vector: the image of
    // a unit vector is that bit's column of the GF(2) matrix. Then
    // cover each input's span of relevant bits with 8-bit chunks.
    for (unsigned input = 0; input < inputs_.size(); ++input) {
        std::array<std::array<uint64_t, 2>, 64> column{};
        int lo = -1, hi = -1;
        for (unsigned b = 0; b < 64; ++b) {
            Inputs in{};
            in[input] = uint64_t{1} << b;
            column[b] = pack(reference(in));
            if (column[b] != std::array<uint64_t, 2>{}) {
                lo = lo < 0 ? int(b) : lo;
                hi = int(b);
            }
        }
        first_[input] = uint16_t(shift_.size());
        for (int shift = lo; lo >= 0 && shift <= hi; shift += 8) {
            shift_.push_back(uint8_t(shift));
            const size_t base = table_.size();
            table_.resize(base + 256 * words_);
            for (unsigned v = 0; v < 256; ++v) {
                for (unsigned k = 0; k < 8 && shift + k < 64; ++k) {
                    if ((v >> k) & 1) {
                        for (unsigned w = 0; w < words_; ++w)
                            table_[base + v * words_ + w] ^=
                                column[shift + k][w];
                    }
                }
            }
        }
    }
    for (size_t i = inputs_.size(); i <= kMaxInputs; ++i)
        first_[i] = uint16_t(shift_.size());

    // A map that is linear agrees with its unit-vector expansion
    // everywhere; one that is not fails on random vectors with
    // overwhelming probability.
    Rng rng(0xe58a11);
    for (int i = 0; i < kLinearityChecks; ++i) {
        Inputs in{};
        for (unsigned k = 0; k < inputs_.size(); ++k)
            in[k] = rng.next();
        Fields want = reference(in);
        for (size_t f = fieldBits_.size(); f < kMaxFields; ++f)
            want[f] = 0;
        if (unpacked(in) != want) {
            std::string names;
            for (const std::string &n : inputs_)
                names += (names.empty() ? "" : ", ") + n;
            throw std::logic_error("index map of (" + names
                                   + ") is not GF(2)-linear");
        }
    }
}

Gf2IndexTables::Fields
Gf2IndexTables::unpacked(const Inputs &in) const
{
    Fields out{};
    if (words_ == 1) {
        const Packed<1> p = eval<1>(in);
        for (unsigned f = 0; f < fieldBits_.size(); ++f)
            out[f] = field<1>(p, f);
    } else {
        const Packed<2> p = eval<2>(in);
        for (unsigned f = 0; f < fieldBits_.size(); ++f)
            out[f] = field<2>(p, f);
    }
    return out;
}

} // namespace ev8
