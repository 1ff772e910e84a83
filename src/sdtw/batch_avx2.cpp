/**
 * @file
 * AVX2 backend of the lane-batched sDTW kernel: 8 reads per vector
 * op.  This translation unit is compiled with -mavx2 (see
 * CMakeLists.txt) and only ever executed after runtime CPU dispatch
 * confirms AVX2 support, so the rest of the library stays portable.
 * Tile-edge carry state (batch_kernel.hpp) moves through the same
 * unaligned loadU32/storeU32 helpers as the DP rows, so the column-
 * tiled walk costs no extra Ops surface.
 */

#include "sdtw/batch_kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace sf::sdtw::detail {
namespace {

struct Avx2Ops
{
    static constexpr int kMaxStrip = 4;
    static constexpr std::size_t W = 8;
    using Vec = __m256i;
    using Mask = __m256i;

    static Vec broadcast(std::int32_t v) { return _mm256_set1_epi32(v); }
    static Vec loadI32(const std::int32_t *p)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
    }
    static Vec loadU32(const Cost *p)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
    }
    static void storeU32(Cost *p, Vec v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    /** W consecutive reference samples, sign-extended. */
    static Vec loadRef(const NormSample *p)
    {
        return _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
    }
    static Vec loadDwell(const std::uint8_t *p)
    {
        return _mm256_cvtepu8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
    }
    static void storeDwell(std::uint8_t *p, Vec v)
    {
        // Values are in [0, 255], so both packs are exact.  The packs
        // operate per 128-bit half: the low 4 bytes of each half end
        // up holding that half's four lanes.
        const __m256i w16 = _mm256_packus_epi32(v, v);
        const __m256i b8 = _mm256_packus_epi16(w16, w16);
        const int lo = _mm_cvtsi128_si32(_mm256_castsi256_si128(b8));
        const int hi =
            _mm_cvtsi128_si32(_mm256_extracti128_si256(b8, 1));
        std::memcpy(p, &lo, 4);
        std::memcpy(p + 4, &hi, 4);
    }
    static Vec addI32(Vec a, Vec b) { return _mm256_add_epi32(a, b); }
    static Vec subI32(Vec a, Vec b) { return _mm256_sub_epi32(a, b); }
    static Vec absI32(Vec v) { return _mm256_abs_epi32(v); }
    static Mask gtU32(Vec a, Vec b)
    {
        const __m256i bias = _mm256_set1_epi32(int(0x80000000u));
        return _mm256_cmpgt_epi32(_mm256_xor_si256(a, bias),
                                  _mm256_xor_si256(b, bias));
    }
    static Vec minI32(Vec a, Vec b) { return _mm256_min_epi32(a, b); }
    static Vec minU32(Vec a, Vec b) { return _mm256_min_epu32(a, b); }
    static Vec maxU32(Vec a, Vec b) { return _mm256_max_epu32(a, b); }
    static Vec shlI32(Vec v, int count)
    {
        return _mm256_sll_epi32(v, _mm_cvtsi32_si128(count));
    }
    static Vec shrI32(Vec v, int count)
    {
        return _mm256_srl_epi32(v, _mm_cvtsi32_si128(count));
    }
    /**
     * [prev lane 7, cur lanes 0..6]: vperm2i128 gathers
     * [prev lanes 4..7, cur lanes 0..3], then vpalignr shifts each
     * 128-bit half of cur up one lane, filling from that.
     */
    static Vec shiftInLane(Vec cur, Vec prev)
    {
        const __m256i mid = _mm256_permute2x128_si256(prev, cur, 0x21);
        return _mm256_alignr_epi8(cur, mid, 12);
    }
    /** kgt ? min(dw + one, cap) : one (the post-fold dwell update). */
    static Vec dwellBump(Vec dw, Vec one, Vec capv, Vec, Mask kgt)
    {
        return _mm256_blendv_epi8(
            one, _mm256_min_epi32(addI32(dw, one), capv), kgt);
    }
};

} // namespace

FoldRowFns
resolveFoldRowAvx2(const SdtwConfig &config)
{
    return resolveFoldRow<Avx2Ops>(config);
}

} // namespace sf::sdtw::detail

#endif // __AVX2__
