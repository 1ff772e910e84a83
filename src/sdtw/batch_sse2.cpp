/**
 * @file
 * SSE2 backend of the lane-batched sDTW kernel: 4 reads per vector
 * op, baseline x86-64 — no SSE4.1 instructions, so the epi32 min/
 * mullo/blend helpers are emulated with compare + mask arithmetic.
 * Tile-edge carry state (batch_kernel.hpp) moves through the same
 * unaligned loadU32/storeU32 helpers as the DP rows, so the column-
 * tiled walk costs no extra Ops surface.
 */

#include "sdtw/batch_kernel.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstring>

namespace sf::sdtw::detail {
namespace {

struct Sse2Ops
{
    static constexpr int kMaxStrip = 4;
    static constexpr std::size_t W = 4;
    using Vec = __m128i;
    using Mask = __m128i;

    static Vec broadcast(std::int32_t v) { return _mm_set1_epi32(v); }
    static Vec loadI32(const std::int32_t *p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    }
    static Vec loadU32(const Cost *p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    }
    static void storeU32(Cost *p, Vec v)
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
    }
    static Vec loadDwell(const std::uint8_t *p)
    {
        std::uint32_t bits = 0;
        std::memcpy(&bits, p, 4);
        __m128i x = _mm_cvtsi32_si128(int(bits));
        x = _mm_unpacklo_epi8(x, _mm_setzero_si128());
        return _mm_unpacklo_epi16(x, _mm_setzero_si128());
    }
    static void storeDwell(std::uint8_t *p, Vec v)
    {
        // Dwell values are in [0, 255]: the signed 32->16 pack cannot
        // saturate and the unsigned 16->8 pack is exact.
        const __m128i w16 = _mm_packs_epi32(v, v);
        const __m128i b8 = _mm_packus_epi16(w16, w16);
        const int bits = _mm_cvtsi128_si32(b8);
        std::memcpy(p, &bits, 4);
    }
    static Vec addI32(Vec a, Vec b) { return _mm_add_epi32(a, b); }
    static Vec subI32(Vec a, Vec b) { return _mm_sub_epi32(a, b); }
    static Vec mulI32(Vec a, Vec b)
    {
        // SSE2 has no pmulld; multiply the even/odd lane pairs with
        // pmuludq and re-interleave the low halves.
        const __m128i even = _mm_mul_epu32(a, b);
        const __m128i odd = _mm_mul_epu32(_mm_srli_si128(a, 4),
                                          _mm_srli_si128(b, 4));
        return _mm_unpacklo_epi32(
            _mm_shuffle_epi32(even, _MM_SHUFFLE(0, 0, 2, 0)),
            _mm_shuffle_epi32(odd, _MM_SHUFFLE(0, 0, 2, 0)));
    }
    static Vec absI32(Vec v)
    {
        const __m128i sign = _mm_srai_epi32(v, 31);
        return _mm_sub_epi32(_mm_xor_si128(v, sign), sign);
    }
    static Mask gtU32(Vec a, Vec b)
    {
        // Signed compare after flipping the sign bit == unsigned.
        const __m128i bias = _mm_set1_epi32(int(0x80000000u));
        return _mm_cmpgt_epi32(_mm_xor_si128(a, bias),
                               _mm_xor_si128(b, bias));
    }
    static Mask ltU32(Vec a, Vec b) { return gtU32(b, a); }
    static Vec select(Mask m, Vec t, Vec f)
    {
        return _mm_or_si128(_mm_and_si128(m, t),
                            _mm_andnot_si128(m, f));
    }
    static Vec minI32(Vec a, Vec b)
    {
        return select(_mm_cmpgt_epi32(a, b), b, a);
    }
    static Vec minU32(Vec a, Vec b) { return select(gtU32(a, b), b, a); }
    static Vec maxU32(Vec a, Vec b) { return select(gtU32(a, b), a, b); }
    static Vec shlI32(Vec v, int count)
    {
        return _mm_sll_epi32(v, _mm_cvtsi32_si128(count));
    }
    static Vec shrI32(Vec v, int count)
    {
        return _mm_srl_epi32(v, _mm_cvtsi32_si128(count));
    }
    /** kgt ? min(dw + one, cap) : one (the post-fold dwell update). */
    static Vec dwellBump(Vec dw, Vec one, Vec capv, Vec, Mask kgt)
    {
        return select(kgt, minI32(addI32(dw, one), capv), one);
    }
};

} // namespace

FoldRowFns
resolveFoldRowSse2(const SdtwConfig &config, bool use_bonus)
{
    return resolveFoldRow<Sse2Ops>(config, use_bonus);
}

} // namespace sf::sdtw::detail

#endif // __SSE2__
