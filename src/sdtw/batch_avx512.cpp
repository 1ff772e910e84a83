/**
 * @file
 * AVX-512 backend of the lane-batched sDTW kernel: 16 reads per
 * vector op, with mask registers making every select a single
 * masked-blend, and 32 vector registers carrying 8-row strips (the
 * 16-register backends stop at 4).  Compiled with -mavx512f/bw/vl
 * (see CMakeLists.txt) and executed only after runtime CPU dispatch
 * confirms support.
 * Tile-edge carry state (batch_kernel.hpp) moves through the same
 * unaligned loadU32/storeU32 helpers as the DP rows, so the column-
 * tiled walk costs no extra Ops surface.
 */

#include "sdtw/batch_kernel.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

namespace sf::sdtw::detail {
namespace {

struct Avx512Ops
{
    // 32 zmm registers hold an 8-row strip's query, inPrev and dwPrev
    // vectors plus the per-column temporaries: the inner loops run
    // without spills.
    static constexpr int kMaxStrip = 8;
    static constexpr std::size_t W = 16;
    using Vec = __m512i;
    using Mask = __mmask16;

    static Vec broadcast(std::int32_t v) { return _mm512_set1_epi32(v); }
    static Vec loadI32(const std::int32_t *p)
    {
        return _mm512_loadu_si512(p);
    }
    static Vec loadU32(const Cost *p) { return _mm512_loadu_si512(p); }
    static void storeU32(Cost *p, Vec v) { _mm512_storeu_si512(p, v); }
    /** W consecutive reference samples, sign-extended. */
    static Vec loadRef(const NormSample *p)
    {
        return _mm512_cvtepi8_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    static Vec loadDwell(const std::uint8_t *p)
    {
        return _mm512_cvtepu8_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    static void storeDwell(std::uint8_t *p, Vec v)
    {
        // vpmovdb truncates each epi32 lane to a byte; dwell values
        // are in [0, 255], so the truncation is exact.  (The store
        // form avoids GCC's _mm_undefined_si128-based register form,
        // which trips -Wmaybe-uninitialized.)
        _mm512_mask_cvtepi32_storeu_epi8(p, __mmask16(0xffff), v);
    }
    static Vec addI32(Vec a, Vec b) { return _mm512_add_epi32(a, b); }
    static Vec subI32(Vec a, Vec b) { return _mm512_sub_epi32(a, b); }
    static Vec absI32(Vec v) { return _mm512_abs_epi32(v); }
    static Mask gtU32(Vec a, Vec b)
    {
        return _mm512_cmpgt_epu32_mask(a, b);
    }
    static Vec minI32(Vec a, Vec b) { return _mm512_min_epi32(a, b); }
    static Vec minU32(Vec a, Vec b) { return _mm512_min_epu32(a, b); }
    static Vec maxU32(Vec a, Vec b) { return _mm512_max_epu32(a, b); }
    static Vec shlI32(Vec v, int count)
    {
        return _mm512_sll_epi32(v, _mm_cvtsi32_si128(count));
    }
    static Vec shrI32(Vec v, int count)
    {
        return _mm512_srl_epi32(v, _mm_cvtsi32_si128(count));
    }
    /** [prev lane 15, cur lanes 0..14]: one valignd. */
    static Vec shiftInLane(Vec cur, Vec prev)
    {
        return _mm512_alignr_epi32(cur, prev, 15);
    }
    /**
     * kgt ? min(dw + one, cap) : one as a zero-masked min plus one add
     * (no merge copy): min(dw + one, cap) == min(dw, cap - one) + one
     * for pre-capped dwell, and the masked-off lanes are 0 + one.
     */
    static Vec dwellBump(Vec dw, Vec one, Vec, Vec capm1, Mask kgt)
    {
        return _mm512_add_epi32(_mm512_maskz_min_epi32(kgt, dw, capm1),
                                one);
    }
};

} // namespace

FoldRowFns
resolveFoldRowAvx512(const SdtwConfig &config)
{
    return resolveFoldRow<Avx512Ops>(config);
}

} // namespace sf::sdtw::detail

#endif // AVX-512 F+BW+VL
