#include "nn/gemm.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/scratch.hh"

namespace djinn {
namespace nn {

namespace {

// ---------------------------------------------------------------
// Production kernel: packed panels + register-tiled microkernel.
//
// Blocking scheme (DESIGN.md §8): the k dimension is cut into KC
// slices; per slice, op(B) is packed once into NR-wide column
// panels and rows of C are partitioned into MC blocks across the
// compute pool. Each MC block packs its op(A) slice into MR-row
// panels and drives the MR x NR microkernel. Every C element is
// owned by exactly one row block, and k slices are visited in
// ascending order with a barrier between them, so the floating
// point reduction order is fixed regardless of pool size.
// ---------------------------------------------------------------

constexpr int64_t MR = 8;   ///< microkernel rows
constexpr int64_t NR = 16;  ///< microkernel columns
constexpr int64_t KC = 256; ///< k block (panel depth)
constexpr int64_t MC = 64;  ///< rows per parallel work unit

static_assert(MR == 8, "microKernel unrolls exactly MR == 8 rows");
static_assert(MC % MR == 0, "row blocks must hold whole A panels");

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

/**
 * The register-tiled core: acc[MR][NR] += Apanel * Bpanel over kb
 * steps. Written with GCC/Clang vector extensions so each of the
 * MR accumulator rows is one NR-wide vector register (legalized to
 * the target's width automatically); contraction is disabled for
 * this file, so mul and add stay separate IEEE operations and the
 * result bits never depend on the host's FMA support.
 */
#if defined(__GNUC__) || defined(__clang__)

typedef float VecNR __attribute__((vector_size(NR * sizeof(float)),
                                   aligned(alignof(float))));

__attribute__((noinline)) void
microKernel(int64_t kb, const float *__restrict__ ap,
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
microKernel(int64_t kb, const float *ap, const float *bp, float *acc)
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

/**
 * Pack op(B)[k0 : k0+kb) x [0 : n) into NR-wide panels: panel pj
 * holds columns [pj*NR, pj*NR+NR) in layout [p][j], zero-padded to
 * NR at the right edge.
 */
void
packB(const float *b, int64_t ldb, Trans trans, int64_t k0,
      int64_t kb, int64_t n, int64_t pj0, int64_t pj1, float *bpack)
{
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        float *panel = bpack + pj * kb * NR;
        int64_t j0 = pj * NR;
        int64_t nr = std::min(NR, n - j0);
        for (int64_t p = 0; p < kb; ++p) {
            float *row = panel + p * NR;
            for (int64_t jj = 0; jj < nr; ++jj)
                row[jj] = fetchB(b, ldb, trans, k0 + p, j0 + jj);
            for (int64_t jj = nr; jj < NR; ++jj)
                row[jj] = 0.0f;
        }
    }
}

/**
 * Pack op(A)[i0 : i0+mb) x [k0 : k0+kb) into MR-row panels in
 * layout [p][i], zero-padded to MR at the bottom edge.
 */
void
packA(const float *a, int64_t lda, Trans trans, int64_t i0,
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
                row[ii] = fetchA(a, lda, trans, ib + ii, k0 + p);
            for (int64_t ii = mr; ii < MR; ++ii)
                row[ii] = 0.0f;
        }
    }
}

/** Scale C by beta (the epilogue-free prologue of every path). */
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

/**
 * Matrix-vector fast path (n == 1): one fixed-order dot product per
 * output row, partitioned across the pool.
 */
void
gemvKernel(Trans trans_a, Trans trans_b, int64_t m, int64_t k,
           float alpha, const float *a, int64_t lda, const float *b,
           int64_t ldb, float *c, int64_t ldc)
{
    // B's single column: stored k x 1 (stride ldb) untransposed,
    // 1 x k (stride 1) transposed.
    int64_t bstride = trans_b == Trans::No ? ldb : 1;
    auto &pool = common::computePool();
    int64_t grain =
        std::max<int64_t>(1, 4096 / std::max<int64_t>(k, 1));
    pool.parallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += fetchA(a, lda, trans_a, i, p) * b[p * bstride];
            c[i * ldc] += alpha * acc;
        }
    });
}

} // namespace

void
sgemm(Trans trans_a, Trans trans_b, int64_t m, int64_t n, int64_t k,
      float alpha, const float *a, int64_t lda, const float *b,
      int64_t ldb, float beta, float *c, int64_t ldc)
{
    if (m < 0 || n < 0 || k < 0)
        fatal("sgemm: negative dimension m=%ld n=%ld k=%ld", m, n, k);
    if (m == 0 || n == 0)
        return;

    scaleByBeta(m, n, beta, c, ldc);
    if (k == 0 || alpha == 0.0f)
        return;

    if (n == 1) {
        gemvKernel(trans_a, trans_b, m, k, alpha, a, lda, b, ldb, c,
                   ldc);
        return;
    }

    auto &pool = common::computePool();
    int64_t npanels = (n + NR - 1) / NR;
    int64_t kc0 = std::min(KC, k);

    // The B pack buffer is shared by all row tasks of one k slice.
    Scratch<float> bpack(static_cast<size_t>(npanels) * kc0 * NR);

    for (int64_t k0 = 0; k0 < k; k0 += KC) {
        int64_t kb = std::min(KC, k - k0);
        pool.parallelFor(
            0, npanels, 16, [&](int64_t p0, int64_t p1) {
                packB(b, ldb, trans_b, k0, kb, n, p0, p1,
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
                packA(a, lda, trans_a, i0, mb, k0, kb, apack.data());
                int64_t mpanels = (mb + MR - 1) / MR;
                for (int64_t pi = 0; pi < mpanels; ++pi) {
                    int64_t ib = i0 + pi * MR;
                    int64_t mr = std::min(MR, m - ib);
                    for (int64_t pj = 0; pj < npanels; ++pj) {
                        int64_t jb = pj * NR;
                        int64_t nr = std::min(NR, n - jb);
                        float acc[MR * NR]; // fully written below
                        microKernel(kb, apack.data() + pi * kb * MR,
                                    bpack.data() + pj * kb * NR,
                                    acc);
                        for (int64_t ii = 0; ii < mr; ++ii) {
                            float *crow = c + (ib + ii) * ldc + jb;
                            const float *arow = acc + ii * NR;
                            for (int64_t jj = 0; jj < nr; ++jj)
                                crow[jj] += alpha * arow[jj];
                        }
                    }
                }
            }
        });
    }
}

void
sgemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
      float *c)
{
    sgemm(Trans::No, Trans::No, m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
}

void
sgemv(int64_t m, int64_t n, const float *a, const float *x, float *y)
{
    // y = A * x is sgemm with a 1-column B (ldb 1) writing a
    // 1-column C (ldc 1); dispatches to the n == 1 fast path.
    sgemm(Trans::No, Trans::No, m, 1, n, 1.0f, a, n, x, 1, 0.0f, y,
          1);
}

} // namespace nn
} // namespace djinn
