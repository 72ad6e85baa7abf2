/**
 * @file
 * The GF(2) index compiler shared by every skewed predictor.
 *
 * The paper builds each index bit from XOR trees: the Section 8.1.1
 * skewing family f_i = H^i(v1) XOR H'^i(v2) and the Section 7 EV8
 * equations alike. Every such index function is a linear map over
 * GF(2) from its inputs (address, history, path) to the index bits, so
 * it is fully described by the images of the input unit vectors.
 *
 * Gf2IndexTables compiles such a map from its reference function. It
 * probes every bit of every named 64-bit input with a unit vector (the
 * image is that bit's column of the map's matrix), checks on random
 * vectors that the reference agrees with the unit-vector expansion
 * (throwing std::logic_error if it does not: the reference is not
 * linear), and emits one 256-entry table of XOR contributions per
 * 8-bit run of each input's relevant bits. Evaluating the map is then
 * one table read per chunk, whatever the depth of the XOR trees.
 *
 * Every output field (one table index each) is packed into the table
 * entries: one 64-bit word with 16-bit fields when every field fits 16
 * bits, else two words with 32-bit fields.
 */

#ifndef EV8_COMMON_GF2_INDEX_HH
#define EV8_COMMON_GF2_INDEX_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ev8
{

class Gf2IndexTables
{
  public:
    static constexpr unsigned kMaxInputs = 5;
    static constexpr unsigned kMaxFields = 4;
    static constexpr unsigned kMaxFieldBits = 32;

    using Inputs = std::array<uint64_t, kMaxInputs>;
    using Fields = std::array<uint64_t, kMaxFields>;
    using Reference = std::function<Fields(const Inputs &)>;

    /** The packed fields of W words (W == words()). */
    template <unsigned W>
    using Packed = std::array<uint64_t, W>;

    /**
     * Compiles @p reference, a map from up to kMaxInputs inputs (named
     * by @p inputs, in Inputs order; the rest read 0) to one index per
     * entry of @p field_bits (at most kMaxFields, each at most
     * kMaxFieldBits wide).
     *
     * @throws std::invalid_argument on a bad input or field count or
     *         width
     * @throws std::logic_error if @p reference is not GF(2)-linear or
     *         writes an index wider than its field
     */
    Gf2IndexTables(std::vector<std::string> inputs,
                   std::vector<unsigned> field_bits,
                   const Reference &reference);

    /** Words per packed value: 1 (16-bit fields) or 2 (32-bit). */
    unsigned words() const { return words_; }

    unsigned fields() const { return unsigned(fieldBits_.size()); }

    /** Input @p input's contribution to the packed fields: by
     *  linearity, the packed fields are the XOR of every input's. */
    template <unsigned W>
    Packed<W>
    term(unsigned input, uint64_t value) const
    {
        assert(W == words_ && input < inputs_.size());
        Packed<W> out{};
        for (unsigned c = first_[input]; c < first_[input + 1]; ++c) {
            const uint64_t *e =
                &table_[(size_t{c} * 256 + ((value >> shift_[c]) & 0xff))
                        * W];
            for (unsigned w = 0; w < W; ++w)
                out[w] ^= e[w];
        }
        return out;
    }

    /** term() for either word count, zero-extended to two words. */
    Packed<2>
    wideTerm(unsigned input, uint64_t value) const
    {
        if (words_ == 2)
            return term<2>(input, value);
        return {term<1>(input, value)[0], 0};
    }

    /** The packed fields of every input together. */
    template <unsigned W>
    Packed<W>
    eval(const Inputs &in) const
    {
        Packed<W> out{};
        for (unsigned i = 0; i < inputs_.size(); ++i) {
            const Packed<W> t = term<W>(i, in[i]);
            for (unsigned w = 0; w < W; ++w)
                out[w] ^= t[w];
        }
        return out;
    }

    /** Field @p f of a packed value. */
    template <unsigned W>
    static constexpr uint64_t
    field(const Packed<W> &packed, unsigned f)
    {
        if constexpr (W == 1)
            return (packed[0] >> (16 * f)) & 0xffff;
        else
            return (packed[f / 2] >> (32 * (f % 2))) & 0xffffffff;
    }

    /** Every field of in's image, unpacked. */
    Fields unpacked(const Inputs &in) const;

  private:
    std::vector<std::string> inputs_;
    std::vector<unsigned> fieldBits_;
    unsigned words_ = 1;
    //! Chunks of input i are [first_[i], first_[i + 1]).
    std::array<uint16_t, kMaxInputs + 1> first_{};
    std::vector<uint8_t> shift_;
    //! Chunk c's entry v is words_ words at ((c * 256) + v) * words_.
    std::vector<uint64_t> table_;
};

} // namespace ev8

#endif // EV8_COMMON_GF2_INDEX_HH
