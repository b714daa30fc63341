/**
 * @file
 * Low-precision GEMM kernels (DESIGN.md §14): bf16 storage-rounded
 * GEMM and u8 x s8 integer GEMM with int32 accumulation. Both reuse
 * the sgemm blocking scheme (KC-sliced k, NR-wide B panels shared
 * per slice, MC-row blocks partitioned across the compute pool,
 * an MR x NR register-tiled microkernel) with quantization fused
 * into the packing step.
 *
 * Determinism: the bf16 kernel fixes its reduction order exactly
 * like sgemm (this file is compiled with -ffp-contract=off); the
 * int8 kernel accumulates in exact integer arithmetic, so its
 * blocking, thread count, and even the host ISA cannot change the
 * output bits — the only floating point is the fixed per-element
 * dequant expression on store.
 */

#include "nn/gemm.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define DJINN_GEMM_VNNI 1
#endif

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/scratch.hh"

namespace djinn {
namespace nn {

namespace {

constexpr int64_t MR = 8;   ///< microkernel rows
constexpr int64_t NR = 16;  ///< microkernel columns
constexpr int64_t KC = 256; ///< bf16 k block (panel depth, floats)
constexpr int64_t MC = 64;  ///< rows per parallel work unit

/** int8 k block: 4x deeper than f32 for the same panel bytes. */
constexpr int64_t KC8 = 1024;

static_assert(MR == 8, "microkernels unroll exactly MR == 8 rows");
static_assert(MC % MR == 0, "row blocks must hold whole A panels");
static_assert(KC8 % 4 == 0, "int8 panels pack k in groups of 4");

/** Fetch op(A)[i][p] given the storage and transpose flag. */
inline float
fetchA(const float *a, int64_t lda, Trans trans, int64_t i, int64_t p)
{
    return trans == Trans::No ? a[i * lda + p] : a[p * lda + i];
}

/** Fetch op(B)[p][j] given the storage and transpose flag. */
inline float
fetchB(const float *b, int64_t ldb, Trans trans, int64_t p, int64_t j)
{
    return trans == Trans::No ? b[p * ldb + j] : b[j * ldb + p];
}

inline int8_t
fetchA8(const int8_t *a, int64_t lda, Trans trans, int64_t i,
        int64_t p)
{
    return trans == Trans::No ? a[i * lda + p] : a[p * lda + i];
}

inline int8_t
fetchB8(const int8_t *b, int64_t ldb, Trans trans, int64_t p,
        int64_t j)
{
    return trans == Trans::No ? b[p * ldb + j] : b[j * ldb + p];
}

/** Scale C by beta across the pool (same as sgemm's prologue). */
void
scaleByBeta(int64_t m, int64_t n, float beta, float *c, int64_t ldc)
{
    auto &pool = common::computePool();
    int64_t grain =
        std::max<int64_t>(1, 16384 / std::max<int64_t>(n, 1));
    pool.parallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float *c_row = c + i * ldc;
            if (beta == 0.0f) {
                std::memset(c_row, 0,
                            static_cast<size_t>(n) * sizeof(float));
            } else if (beta != 1.0f) {
                for (int64_t j = 0; j < n; ++j)
                    c_row[j] *= beta;
            }
        }
    });
}

// ---------------------------------------------------------------
// bf16: the sgemm structure with round-to-bf16 fused into packing.
// ---------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)

typedef float VecNR __attribute__((vector_size(NR * sizeof(float)),
                                   aligned(alignof(float))));

__attribute__((noinline)) void
microKernelF32(int64_t kb, const float *__restrict__ ap,
               const float *__restrict__ bp, float *acc)
{
    VecNR c0{}, c1{}, c2{}, c3{}, c4{}, c5{}, c6{}, c7{};
    for (int64_t p = 0; p < kb; ++p) {
        const float *a = ap + p * MR;
        VecNR bv;
        __builtin_memcpy(&bv, bp + p * NR, sizeof(bv));
        c0 += a[0] * bv;
        c1 += a[1] * bv;
        c2 += a[2] * bv;
        c3 += a[3] * bv;
        c4 += a[4] * bv;
        c5 += a[5] * bv;
        c6 += a[6] * bv;
        c7 += a[7] * bv;
    }
    const VecNR rows[MR] = {c0, c1, c2, c3, c4, c5, c6, c7};
    __builtin_memcpy(acc, rows, sizeof(rows));
}

#else // portable scalar fallback, same arithmetic order

void
microKernelF32(int64_t kb, const float *ap, const float *bp,
               float *acc)
{
    for (int64_t i = 0; i < MR * NR; ++i)
        acc[i] = 0.0f;
    for (int64_t p = 0; p < kb; ++p) {
        const float *arow = ap + p * MR;
        const float *brow = bp + p * NR;
        for (int64_t i = 0; i < MR; ++i) {
            float av = arow[i];
            float *crow = acc + i * NR;
            for (int64_t j = 0; j < NR; ++j)
                crow[j] += av * brow[j];
        }
    }
}

#endif

/** Pack op(B) into NR panels, rounding every value to bf16. */
void
packBBf16(const float *b, int64_t ldb, Trans trans, int64_t k0,
          int64_t kb, int64_t n, int64_t pj0, int64_t pj1,
          float *bpack)
{
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        float *panel = bpack + pj * kb * NR;
        int64_t j0 = pj * NR;
        int64_t nr = std::min(NR, n - j0);
        for (int64_t p = 0; p < kb; ++p) {
            float *row = panel + p * NR;
            for (int64_t jj = 0; jj < nr; ++jj)
                row[jj] =
                    bf16Round(fetchB(b, ldb, trans, k0 + p, j0 + jj));
            for (int64_t jj = nr; jj < NR; ++jj)
                row[jj] = 0.0f;
        }
    }
}

/** Pack op(A) into MR panels, rounding every value to bf16. */
void
packABf16(const float *a, int64_t lda, Trans trans, int64_t i0,
          int64_t mb, int64_t k0, int64_t kb, float *apack)
{
    int64_t mpanels = (mb + MR - 1) / MR;
    for (int64_t pi = 0; pi < mpanels; ++pi) {
        float *panel = apack + pi * kb * MR;
        int64_t ib = i0 + pi * MR;
        int64_t mr = std::min(MR, i0 + mb - ib);
        for (int64_t p = 0; p < kb; ++p) {
            float *row = panel + p * MR;
            for (int64_t ii = 0; ii < mr; ++ii)
                row[ii] = bf16Round(
                    fetchA(a, lda, trans, ib + ii, k0 + p));
            for (int64_t ii = mr; ii < MR; ++ii)
                row[ii] = 0.0f;
        }
    }
}

// ---------------------------------------------------------------
// int8: u8 (left) x s8 (right) panels, int32 accumulation into a
// full-size accumulator buffer that persists across k slices, then
// one dequant epilogue. Integer addition is associative, so the
// slice/block structure cannot affect the result bits.
//
// The left panel is always the unsigned operand (VNNI's vpdpbusd
// multiplies u8 by s8): real u8 activation codes in gemm_s8, or
// s8 weight codes biased by +128 in gemm_s8_wl. The epilogue
// removes both offsets exactly:
//
//   sum_real (qa - oa)(qb - ob)
//     = acc - oa * colsum_b - ob * rowsum_a + k * oa * ob
// ---------------------------------------------------------------

/**
 * u8 x s8 register-tiled core: acc[MR][NR] (int32) = sum over kg
 * groups of 4 k steps. A panel layout: [g][i][0..3] (4 consecutive
 * k codes per row); B panel layout: [g][j][0..3].
 */
#ifdef DJINN_GEMM_VNNI

__attribute__((noinline)) void
microKernelI8(int64_t kg, const uint8_t *__restrict__ ap,
              const int8_t *__restrict__ bp, int32_t *acc)
{
    __m512i c0 = _mm512_setzero_si512(), c1 = c0, c2 = c0, c3 = c0,
            c4 = c0, c5 = c0, c6 = c0, c7 = c0;
    for (int64_t g = 0; g < kg; ++g) {
        __m512i bv = _mm512_loadu_si512(bp + g * NR * 4);
        const uint8_t *arow = ap + g * MR * 4;
        int32_t aw[MR];
        std::memcpy(aw, arow, sizeof(aw));
        c0 = _mm512_dpbusd_epi32(c0, _mm512_set1_epi32(aw[0]), bv);
        c1 = _mm512_dpbusd_epi32(c1, _mm512_set1_epi32(aw[1]), bv);
        c2 = _mm512_dpbusd_epi32(c2, _mm512_set1_epi32(aw[2]), bv);
        c3 = _mm512_dpbusd_epi32(c3, _mm512_set1_epi32(aw[3]), bv);
        c4 = _mm512_dpbusd_epi32(c4, _mm512_set1_epi32(aw[4]), bv);
        c5 = _mm512_dpbusd_epi32(c5, _mm512_set1_epi32(aw[5]), bv);
        c6 = _mm512_dpbusd_epi32(c6, _mm512_set1_epi32(aw[6]), bv);
        c7 = _mm512_dpbusd_epi32(c7, _mm512_set1_epi32(aw[7]), bv);
    }
    _mm512_storeu_si512(acc + 0 * NR, c0);
    _mm512_storeu_si512(acc + 1 * NR, c1);
    _mm512_storeu_si512(acc + 2 * NR, c2);
    _mm512_storeu_si512(acc + 3 * NR, c3);
    _mm512_storeu_si512(acc + 4 * NR, c4);
    _mm512_storeu_si512(acc + 5 * NR, c5);
    _mm512_storeu_si512(acc + 6 * NR, c6);
    _mm512_storeu_si512(acc + 7 * NR, c7);
}

#else // exact scalar fallback: integer math, so bit-identical

void
microKernelI8(int64_t kg, const uint8_t *ap, const int8_t *bp,
              int32_t *acc)
{
    for (int64_t i = 0; i < MR * NR; ++i)
        acc[i] = 0;
    for (int64_t g = 0; g < kg; ++g) {
        const uint8_t *arow = ap + g * MR * 4;
        const int8_t *brow = bp + g * NR * 4;
        for (int64_t i = 0; i < MR; ++i) {
            int32_t *crow = acc + i * NR;
            for (int64_t j = 0; j < NR; ++j) {
                int32_t s = 0;
                for (int64_t e = 0; e < 4; ++e) {
                    s += static_cast<int32_t>(arow[i * 4 + e]) *
                         static_cast<int32_t>(brow[j * 4 + e]);
                }
                crow[j] += s;
            }
        }
    }
}

#endif

/**
 * Pack the signed right-hand panel: either pre-quantized s8 codes
 * (weights) or f32 quantized with @p bq on the fly (activations).
 * Layout [g][j][0..3], zero-padded; column sums of the real codes
 * accumulate into @p colsum (each panel owns a disjoint j range).
 */
void
packBS8(const int8_t *b8, const float *bf, const QuantParams &bq,
        int64_t ldb, Trans trans, int64_t k0, int64_t kb, int64_t n,
        int64_t pj0, int64_t pj1, int8_t *bpack, int64_t kg,
        int32_t *colsum)
{
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        int8_t *panel = bpack + pj * kg * NR * 4;
        int64_t j0 = pj * NR;
        int64_t nr = std::min(NR, n - j0);
        std::memset(panel, 0, static_cast<size_t>(kg) * NR * 4);
        for (int64_t jj = 0; jj < nr; ++jj) {
            int32_t sum = 0;
            for (int64_t p = 0; p < kb; ++p) {
                int32_t q =
                    b8 ? fetchB8(b8, ldb, trans, k0 + p, j0 + jj)
                       : bq.quantize(
                             fetchB(bf, ldb, trans, k0 + p, j0 + jj));
                sum += q;
                panel[(p / 4) * NR * 4 + jj * 4 + (p % 4)] =
                    static_cast<int8_t>(q);
            }
            colsum[j0 + jj] += sum;
        }
    }
}

/**
 * Pack the unsigned left-hand panel: f32 activations quantized
 * with @p aq (gemm_s8) or s8 weight codes biased by +128
 * (gemm_s8_wl). Layout [g][i][0..3], zero-padded; row sums of the
 * real codes accumulate into @p rowsum.
 */
void
packAU8(const float *af, const QuantParams &aq, const int8_t *a8,
        int64_t lda, Trans trans, int64_t i0, int64_t mb, int64_t k0,
        int64_t kb, uint8_t *apack, int64_t kg, int32_t *rowsum)
{
    int64_t mpanels = (mb + MR - 1) / MR;
    for (int64_t pi = 0; pi < mpanels; ++pi) {
        uint8_t *panel = apack + pi * kg * MR * 4;
        int64_t ib = i0 + pi * MR;
        int64_t mr = std::min(MR, i0 + mb - ib);
        std::memset(panel, 0, static_cast<size_t>(kg) * MR * 4);
        for (int64_t ii = 0; ii < mr; ++ii) {
            int32_t sum = 0;
            for (int64_t p = 0; p < kb; ++p) {
                int32_t q =
                    af ? aq.quantize(
                             fetchA(af, lda, trans, ib + ii, k0 + p))
                       : fetchA8(a8, lda, trans, ib + ii, k0 + p) +
                             128;
                sum += q;
                panel[(p / 4) * MR * 4 + ii * 4 + (p % 4)] =
                    static_cast<uint8_t>(q);
            }
            rowsum[ib + ii] += sum;
        }
    }
}

/**
 * The shared u8 x s8 driver. Exactly one of (af) / (a8) is set for
 * the left operand, and one of (b8) / (bf) for the right; @p oa /
 * @p ob are the left/right integer offsets removed in the
 * epilogue. @p a_scales / @p b_scales may be null for a broadcast
 * scale of @p a_scale / @p b_scale.
 */
void
gemmS8Core(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
           int64_t k, float alpha, const float *af,
           const QuantParams &aq, const int8_t *a8, int64_t lda,
           const float *a_scales, float a_scale, const int8_t *b8,
           const float *bf, const QuantParams &bq, int64_t ldb,
           const float *b_scales, float b_scale, float beta,
           float *c, int64_t ldc, int32_t oa, int32_t ob)
{
    if (m < 0 || n < 0 || k < 0)
        fatal("gemm_s8: negative dimension m=%ld n=%ld k=%ld", m, n,
              k);
    if (k > (int64_t{1} << 16))
        fatal("gemm_s8: k=%ld exceeds the int32 accumulator bound "
              "(max %ld)", k, int64_t{1} << 16);
    if (m == 0 || n == 0)
        return;

    scaleByBeta(m, n, beta, c, ldc);
    if (k == 0 || alpha == 0.0f)
        return;

    auto &pool = common::computePool();
    int64_t npanels = (n + NR - 1) / NR;

    // Whole-problem integer state: the accumulator buffer persists
    // across k slices (exact integer addition), the row/column sums
    // feed the zero-point correction.
    Scratch<int32_t> acc(static_cast<size_t>(m) * n);
    Scratch<int32_t> rowsum(static_cast<size_t>(m));
    Scratch<int32_t> colsum(static_cast<size_t>(n));
    std::fill_n(acc.data(), m * n, 0);
    std::fill_n(rowsum.data(), m, 0);
    std::fill_n(colsum.data(), n, 0);

    int64_t kc0 = std::min(KC8, k);
    int64_t kg0 = (kc0 + 3) / 4;
    Scratch<int8_t> bpack(static_cast<size_t>(npanels) * kg0 * NR * 4);

    for (int64_t k0 = 0; k0 < k; k0 += KC8) {
        int64_t kb = std::min(KC8, k - k0);
        int64_t kg = (kb + 3) / 4;
        pool.parallelFor(0, npanels, 16, [&](int64_t p0, int64_t p1) {
            packBS8(b8, bf, bq, ldb, trans_b, k0, kb, n, p0, p1,
                    bpack.data(), kg, colsum.data());
        });

        int64_t mblocks = (m + MC - 1) / MC;
        pool.parallelFor(0, mblocks, 1, [&](int64_t b0, int64_t b1) {
            static thread_local std::vector<uint8_t> apack_tls;
            std::vector<uint8_t> &apack = apack_tls;
            apack.resize(static_cast<size_t>(MC / MR) * kg * MR * 4);
            int32_t tile[MR * NR];
            for (int64_t blk = b0; blk < b1; ++blk) {
                int64_t i0 = blk * MC;
                int64_t mb = std::min(MC, m - i0);
                packAU8(af, aq, a8, lda, trans_a, i0, mb, k0, kb,
                        apack.data(), kg, rowsum.data());
                int64_t mpanels = (mb + MR - 1) / MR;
                for (int64_t pi = 0; pi < mpanels; ++pi) {
                    int64_t ib = i0 + pi * MR;
                    int64_t mr = std::min(MR, m - ib);
                    for (int64_t pj = 0; pj < npanels; ++pj) {
                        int64_t jb = pj * NR;
                        int64_t nr = std::min(NR, n - jb);
                        microKernelI8(
                            kg, apack.data() + pi * kg * MR * 4,
                            bpack.data() + pj * kg * NR * 4, tile);
                        for (int64_t ii = 0; ii < mr; ++ii) {
                            int32_t *arow =
                                acc.data() + (ib + ii) * n + jb;
                            const int32_t *trow = tile + ii * NR;
                            for (int64_t jj = 0; jj < nr; ++jj)
                                arow[jj] += trow[jj];
                        }
                    }
                }
            }
        });
    }

    // Dequant epilogue: one fixed float expression per element, so
    // output bits cannot depend on the pool size.
    int64_t grain =
        std::max<int64_t>(1, 8192 / std::max<int64_t>(n, 1));
    pool.parallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float sa = a_scales ? a_scales[i] : a_scale;
            int64_t rcorr = static_cast<int64_t>(ob) * rowsum[i] -
                            k * static_cast<int64_t>(oa) * ob;
            const int32_t *arow = acc.data() + i * n;
            float *crow = c + i * ldc;
            for (int64_t j = 0; j < n; ++j) {
                float sb = b_scales ? b_scales[j] : b_scale;
                int64_t v = static_cast<int64_t>(arow[j]) -
                            static_cast<int64_t>(oa) * colsum[j] -
                            rcorr;
                crow[j] += alpha * sa * sb * static_cast<float>(v);
            }
        }
    });
}

} // namespace

void
gemm_bf16(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
          int64_t k, float alpha, const float *a, int64_t lda,
          const float *b, int64_t ldb, float beta, float *c,
          int64_t ldc)
{
    if (m < 0 || n < 0 || k < 0)
        fatal("gemm_bf16: negative dimension m=%ld n=%ld k=%ld", m,
              n, k);
    if (m == 0 || n == 0)
        return;

    scaleByBeta(m, n, beta, c, ldc);
    if (k == 0 || alpha == 0.0f)
        return;

    auto &pool = common::computePool();
    int64_t npanels = (n + NR - 1) / NR;
    int64_t kc0 = std::min(KC, k);

    Scratch<float> bpack(static_cast<size_t>(npanels) * kc0 * NR);

    for (int64_t k0 = 0; k0 < k; k0 += KC) {
        int64_t kb = std::min(KC, k - k0);
        pool.parallelFor(0, npanels, 16, [&](int64_t p0, int64_t p1) {
            packBBf16(b, ldb, trans_b, k0, kb, n, p0, p1,
                      bpack.data());
        });

        int64_t mblocks = (m + MC - 1) / MC;
        pool.parallelFor(0, mblocks, 1, [&](int64_t b0, int64_t b1) {
            static thread_local std::vector<float> apack_tls;
            std::vector<float> &apack = apack_tls;
            apack.resize(static_cast<size_t>(MC) * kb);
            for (int64_t blk = b0; blk < b1; ++blk) {
                int64_t i0 = blk * MC;
                int64_t mb = std::min(MC, m - i0);
                packABf16(a, lda, trans_a, i0, mb, k0, kb,
                          apack.data());
                int64_t mpanels = (mb + MR - 1) / MR;
                for (int64_t pi = 0; pi < mpanels; ++pi) {
                    int64_t ib = i0 + pi * MR;
                    int64_t mr = std::min(MR, m - ib);
                    for (int64_t pj = 0; pj < npanels; ++pj) {
                        int64_t jb = pj * NR;
                        int64_t nr = std::min(NR, n - jb);
                        float tile[MR * NR];
                        microKernelF32(
                            kb, apack.data() + pi * kb * MR,
                            bpack.data() + pj * kb * NR, tile);
                        for (int64_t ii = 0; ii < mr; ++ii) {
                            float *crow = c + (ib + ii) * ldc + jb;
                            const float *trow = tile + ii * NR;
                            for (int64_t jj = 0; jj < nr; ++jj)
                                crow[jj] += alpha * trow[jj];
                        }
                    }
                }
            }
        });
    }
}

void
gemm_s8(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
        int64_t k, float alpha, const float *a, int64_t lda,
        const QuantParams &aq, const int8_t *b, int64_t ldb,
        const float *b_scales, float beta, float *c, int64_t ldc)
{
    if (aq.qmin < 0 || aq.qmax > 255)
        fatal("gemm_s8: activation params must be an unsigned-8 "
              "mapping (qmin %d, qmax %d)", aq.qmin, aq.qmax);
    gemmS8Core(trans_a, trans_b, m, n, k, alpha, a, aq, nullptr,
               lda, nullptr, aq.scale, b, nullptr, QuantParams{},
               ldb, b_scales, 1.0f, beta, c, ldc, aq.zeroPoint, 0);
}

void
gemm_s8_wl(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
           int64_t k, float alpha, const int8_t *a, int64_t lda,
           const float *a_scales, const float *b, int64_t ldb,
           const QuantParams &bq, float beta, float *c, int64_t ldc)
{
    if (bq.qmin < -128 || bq.qmax > 127)
        fatal("gemm_s8_wl: activation params must be a signed-8 "
              "mapping (qmin %d, qmax %d)", bq.qmin, bq.qmax);
    gemmS8Core(trans_a, trans_b, m, n, k, alpha, nullptr,
               QuantParams{}, a, lda, a_scales, 1.0f, nullptr, b,
               bq, ldb, nullptr, bq.scale, beta, c, ldc, 128,
               bq.zeroPoint);
}

} // namespace nn
} // namespace djinn
