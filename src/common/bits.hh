/**
 * @file
 * Bit-manipulation helpers shared by every predictor and index function.
 *
 * All predictor index computations in this project are expressed over
 * uint64_t "bit vectors". These helpers keep those computations readable
 * and auditable against the equations of Section 7 of the paper.
 */

#ifndef EV8_COMMON_BITS_HH
#define EV8_COMMON_BITS_HH

#include <cassert>
#include <cstdint>

namespace ev8
{

/** Returns a mask with the low @p n bits set. @p n must be <= 64. */
constexpr uint64_t
mask(unsigned n)
{
    return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/** Extracts bit @p pos of @p value (0 = least significant). */
constexpr uint64_t
bit(uint64_t value, unsigned pos)
{
    return (value >> pos) & 1;
}

/**
 * Extracts the bit field [hi:lo] of @p value, inclusive on both ends,
 * mirroring the (y6,y5)-style notation of the paper.
 */
constexpr uint64_t
bits(uint64_t value, unsigned hi, unsigned lo)
{
    return (value >> lo) & mask(hi - lo + 1);
}

/** Inserts @p field into bits [hi:lo] of @p base (field must fit). */
constexpr uint64_t
insertBits(uint64_t base, unsigned hi, unsigned lo, uint64_t field)
{
    const uint64_t m = mask(hi - lo + 1);
    return (base & ~(m << lo)) | ((field & m) << lo);
}

/** Rotate-left of the low @p n bits of @p value (result stays n-bit). */
constexpr uint64_t
rotl(uint64_t value, unsigned amount, unsigned n)
{
    value &= mask(n);
    amount %= n;
    if (amount == 0)
        return value;
    return ((value << amount) | (value >> (n - amount))) & mask(n);
}

/** Rotate-right of the low @p n bits of @p value. */
constexpr uint64_t
rotr(uint64_t value, unsigned amount, unsigned n)
{
    amount %= n;
    return rotl(value, n - amount, n);
}

/** XOR-reduces @p value: returns the parity of all its bits. */
constexpr uint64_t
parity(uint64_t value)
{
    value ^= value >> 32;
    value ^= value >> 16;
    value ^= value >> 8;
    value ^= value >> 4;
    value ^= value >> 2;
    value ^= value >> 1;
    return value & 1;
}

/**
 * XOR-folds @p value down to @p n bits by repeatedly XORing the
 * overflowing high part onto the low part. Used to compress wide
 * (address, history) vectors into table indices.
 */
constexpr uint64_t
xorFold(uint64_t value, unsigned n)
{
    assert(n > 0 && n < 64);
    uint64_t folded = 0;
    while (value) {
        folded ^= value & mask(n);
        value >>= n;
    }
    return folded;
}

/** True if @p value is a power of two (and non-zero). */
constexpr bool
isPowerOf2(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr unsigned
log2i(uint64_t value)
{
    assert(isPowerOf2(value));
    unsigned n = 0;
    while (value >>= 1)
        ++n;
    return n;
}

/**
 * One step of an n-bit Galois LFSR-style invertible map, the "H" skewing
 * function of Seznec & Bodin's skewed-associative caches [17]: shift right
 * by one, feeding bit0 XOR bit(n-1) back into the top bit. Being a
 * bijection on n-bit values, it permutes indices without losing entropy.
 */
constexpr uint64_t
skewH(uint64_t value, unsigned n)
{
    assert(n >= 2 && n < 64);
    const uint64_t fb = bit(value, 0) ^ bit(value, n - 1);
    return ((value & mask(n)) >> 1) | (fb << (n - 1));
}

/**
 * The inverse bijection of skewH: shift left by one, reconstructing the
 * old bit0 from the wrapped feedback bit.
 */
constexpr uint64_t
skewHInv(uint64_t value, unsigned n)
{
    assert(n >= 2 && n < 64);
    const uint64_t top = bit(value, n - 1);
    const uint64_t shifted = (value << 1) & mask(n);
    return (shifted | (top ^ bit(value, n - 2))) & mask(n);
}

/** Applies skewH @p times times. */
constexpr uint64_t
skewHPow(uint64_t value, unsigned times, unsigned n)
{
    for (unsigned i = 0; i < times; ++i)
        value = skewH(value, n);
    return value;
}

/** Applies skewHInv @p times times. */
constexpr uint64_t
skewHInvPow(uint64_t value, unsigned times, unsigned n)
{
    for (unsigned i = 0; i < times; ++i)
        value = skewHInv(value, n);
    return value;
}

} // namespace ev8

#endif // EV8_COMMON_BITS_HH
