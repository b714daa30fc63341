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
//
// sgemm_packed skips the per-call B packing: the weights were
// reordered once (packBands) into the same panels, and a panel's
// k slice is a contiguous run of them. Its tiles own their C
// elements outright and walk all k slices in ascending order, so
// no barrier is needed and the bits match sgemm's.
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
 * Pack op(B)[k0 : k0+kb) x [j0 : j0+nr) into one NR-wide panel in
 * layout [p][j], zero-padded to NR at the right edge.
 */
void
packBPanel(const float *b, int64_t ldb, Trans trans, int64_t k0,
           int64_t kb, int64_t j0, int64_t nr, float *panel)
{
    for (int64_t p = 0; p < kb; ++p) {
        float *row = panel + p * NR;
        for (int64_t jj = 0; jj < nr; ++jj)
            row[jj] = fetchB(b, ldb, trans, k0 + p, j0 + jj);
        for (int64_t jj = nr; jj < NR; ++jj)
            row[jj] = 0.0f;
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

/**
 * One KC slice of one tile: C[i0 : i0+mb) x panels [pj0, pj1) +=
 * alpha * Apack * B. @p panel(pj) yields the slice's [kb][NR]
 * panel for column panel pj. Each C element gets exactly one
 * `c += alpha * acc` per slice, whatever the tiling.
 */
template <typename PanelFn>
void
multiplyBlock(int64_t kb, const float *apack, int64_t i0, int64_t mb,
              int64_t pj0, int64_t pj1, int64_t n, float alpha,
              PanelFn &&panel, float *c, int64_t ldc)
{
    int64_t mpanels = (mb + MR - 1) / MR;
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        const float *bp = panel(pj);
        int64_t jb = pj * NR;
        int64_t nr = std::min(NR, n - jb);
        for (int64_t pi = 0; pi < mpanels; ++pi) {
            int64_t ib = i0 + pi * MR;
            int64_t mr = std::min(MR, i0 + mb - ib);
            float acc[MR * NR]; // fully written below
            microKernel(kb, apack + pi * kb * MR, bp, acc);
            for (int64_t ii = 0; ii < mr; ++ii) {
                float *crow = c + (ib + ii) * ldc + jb;
                const float *arow = acc + ii * NR;
                for (int64_t jj = 0; jj < nr; ++jj)
                    crow[jj] += alpha * arow[jj];
            }
        }
    }
}

/** The thread's op(A) pack buffer, sized for one MC x kb block. */
float *
apackBuffer(int64_t kb)
{
    static thread_local std::vector<float> apack;
    apack.resize(static_cast<size_t>(MC) * kb);
    return apack.data();
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
        float *bp = bpack.data();
        pool.parallelFor(
            0, npanels, 16, [&](int64_t p0, int64_t p1) {
                for (int64_t pj = p0; pj < p1; ++pj) {
                    int64_t j0 = pj * NR;
                    packBPanel(b, ldb, trans_b, k0, kb, j0,
                               std::min(NR, n - j0),
                               bp + pj * kb * NR);
                }
            });

        int64_t mblocks = (m + MC - 1) / MC;
        pool.parallelFor(0, mblocks, 1, [&](int64_t b0, int64_t b1) {
            float *apack = apackBuffer(kb);
            for (int64_t blk = b0; blk < b1; ++blk) {
                int64_t i0 = blk * MC;
                int64_t mb = std::min(MC, m - i0);
                packA(a, lda, trans_a, i0, mb, k0, kb, apack);
                multiplyBlock(
                    kb, apack, i0, mb, 0, npanels, n, alpha,
                    [&](int64_t pj) { return bp + pj * kb * NR; }, c,
                    ldc);
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

namespace {

/**
 * Apply @p move to every full band of packBands' layout across the
 * pool; @p move(band, scratch) rewrites one band through a band's
 * worth of scratch.
 */
template <typename MoveFn>
void
forEachBand(float *w, int64_t groups, int64_t rows, int64_t depth,
            MoveFn &&move)
{
    static_assert(kPackBand == NR, "bands are microkernel panels");
    int64_t per_group = rows / NR;
    size_t band = static_cast<size_t>(NR * depth);
    common::computePool().parallelFor(
        0, groups * per_group, 1, [&](int64_t b0, int64_t b1) {
            Scratch<float> tmp(band);
            for (int64_t bi = b0; bi < b1; ++bi) {
                int64_t g = bi / per_group;
                int64_t r0 = (bi % per_group) * NR;
                float *base = w + (g * rows + r0) * depth;
                std::memcpy(tmp.data(), base, band * sizeof(float));
                move(base, tmp.data());
            }
        });
}

} // namespace

void
packBands(float *w, int64_t groups, int64_t rows, int64_t depth)
{
    forEachBand(w, groups, rows, depth,
                [depth](float *band, const float *rowmajor) {
                    for (int64_t p = 0; p < depth; ++p)
                        for (int64_t r = 0; r < NR; ++r)
                            band[p * NR + r] = rowmajor[r * depth + p];
                });
}

void
unpackBands(float *w, int64_t groups, int64_t rows, int64_t depth)
{
    forEachBand(w, groups, rows, depth,
                [depth](float *band, const float *packed) {
                    for (int64_t r = 0; r < NR; ++r)
                        for (int64_t p = 0; p < depth; ++p)
                            band[r * depth + p] = packed[p * NR + r];
                });
}

void
sgemm_packed(int64_t m, int64_t n, int64_t k, const float *a,
             const float *w, float *c)
{
    if (m < 0 || n < 0 || k < 0)
        fatal("sgemm_packed: negative dimension m=%ld n=%ld k=%ld", m,
              n, k);
    if (m == 0 || n == 0)
        return;
    if (n == 1 || k == 0) {
        // No full band: W is its row-major self, and sgemm's n == 1
        // dot-product path gives the bits this product always had.
        sgemm(Trans::No, Trans::Yes, m, n, k, 1.0f, a, k, w, k, 0.0f,
              c, n);
        return;
    }

    // Tiles are (MC row block x panel range). Split the panels only
    // as far as it takes to give every pool thread about four tiles:
    // each tile packs its own A block, so a wide m needs no split.
    auto &pool = common::computePool();
    int64_t npanels = (n + NR - 1) / NR;
    int64_t full = n / NR;
    int64_t mblocks = (m + MC - 1) / MC;
    int64_t want = 4 * static_cast<int64_t>(pool.size());
    int64_t pchunks = std::clamp<int64_t>((want + mblocks - 1) / mblocks,
                                          1, npanels);
    int64_t per = (npanels + pchunks - 1) / pchunks;
    pchunks = (npanels + per - 1) / per;

    pool.parallelFor(0, mblocks * pchunks, 1, [&](int64_t t0,
                                                  int64_t t1) {
        float *apack = apackBuffer(std::min(KC, k));
        float tail[KC * NR];
        for (int64_t t = t0; t < t1; ++t) {
            int64_t i0 = (t / pchunks) * MC;
            int64_t mb = std::min(MC, m - i0);
            int64_t pj0 = (t % pchunks) * per;
            int64_t pj1 = std::min(npanels, pj0 + per);
            for (int64_t i = i0; i < i0 + mb; ++i) {
                float *crow = c + i * n;
                std::fill(crow + pj0 * NR,
                          crow + std::min(n, pj1 * NR), 0.0f);
            }
            // Ascending k slices, as sgemm visits them.
            for (int64_t k0 = 0; k0 < k; k0 += KC) {
                int64_t kb = std::min(KC, k - k0);
                packA(a, k, Trans::No, i0, mb, k0, kb, apack);
                if (pj1 == npanels && full < npanels) {
                    // The partial band stays row-major in W.
                    packBPanel(w, k, Trans::Yes, k0, kb, full * NR,
                               n - full * NR, tail);
                }
                multiplyBlock(
                    kb, apack, i0, mb, pj0, pj1, n, 1.0f,
                    [&](int64_t pj) -> const float * {
                        return pj < full ? w + pj * NR * k + k0 * NR
                                         : tail;
                    },
                    c, n);
            }
        }
    });
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
