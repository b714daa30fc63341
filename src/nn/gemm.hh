/**
 * @file
 * Single-precision general matrix multiply, the compute core of DNN
 * inference (the role ATLAS plays in the paper's CPU baseline).
 *
 * C = alpha * op(A) * op(B) + beta * C, row-major storage.
 *
 * Two implementations live here:
 *
 *  - sgemm: the production kernel — packed A/B panels, cache
 *    blocking (KC x MC), an 8x8 register-tiled microkernel written
 *    so the compiler vectorizes it, and row-partitioned execution
 *    across the shared common::computePool(). Its reduction order
 *    is fixed (ascending k within fixed-size blocks), so results
 *    are bit-identical across runs and across thread counts
 *    (DESIGN.md §8).
 *
 *  - sgemm_packed: the fully connected product over weights packed
 *    once (packBands) into sgemm's panel layout, tiled so a batch
 *    of one still spreads across the pool. Same bits as sgemm.
 *
 *  - sgemm_naive: the original scalar reference kernel, kept for
 *    differential testing and as the benchmark baseline. Never
 *    threaded.
 */

#ifndef DJINN_NN_GEMM_HH
#define DJINN_NN_GEMM_HH

#include <cstdint>

#include "nn/quant.hh"

namespace djinn {
namespace nn {

/** Whether an operand is used as stored or transposed. */
enum class Trans {
    No,
    Yes,
};

/**
 * Row-major SGEMM: C (m x n) = alpha * op(A) * op(B) + beta * C.
 *
 * op(A) is m x k and op(B) is k x n after applying the transpose
 * flags. Leading dimensions are the row strides of the matrices *as
 * stored* (so A is lda-strided regardless of transA).
 *
 * Runs on the shared compute pool when the problem is large enough
 * (see common::setComputeThreads / DJINN_COMPUTE_THREADS); output
 * bits do not depend on the pool size. n == 1 takes a dedicated
 * matrix-vector fast path.
 */
void sgemm(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
           int64_t k, float alpha, const float *a, int64_t lda,
           const float *b, int64_t ldb, float beta, float *c,
           int64_t ldc);

/** Convenience SGEMM with no transposes and unit strides. */
void sgemm(int64_t m, int64_t n, int64_t k, const float *a,
           const float *b, float *c);

/** Rows per band of a packed weight matrix (the microkernel's NR). */
constexpr int64_t kPackBand = 16;

/**
 * Reorder weights in place into the band-major layout the
 * weight-streaming kernels read. @p w holds @p groups consecutive
 * row-major (rows x depth) matrices; each full band of kPackBand
 * rows of a matrix, [kPackBand][depth], becomes [depth][kPackBand]
 * in the same bytes. The rows % kPackBand rows past a matrix's last
 * full band stay row-major. Runs on the compute pool, one band of
 * scratch per task.
 */
void packBands(float *w, int64_t groups, int64_t rows, int64_t depth);

/** Inverse of packBands: restores the row-major layout in place. */
void unpackBands(float *w, int64_t groups, int64_t rows,
                 int64_t depth);

/**
 * The fully connected product over packed weights:
 * C (m x n) = A (m x k) * W^T, where W (n x k) was reordered by
 * packBands(w, 1, n, k). Bit-identical to
 * sgemm(Trans::No, Trans::Yes, m, n, k, 1, a, k, W, k, 0, c, n)
 * on the row-major W, at every pool size. Work is split over
 * (row block x panel range) tiles, so m == 1 still spreads across
 * the whole pool.
 */
void sgemm_packed(int64_t m, int64_t n, int64_t k, const float *a,
                  const float *w, float *c);

/**
 * Reference SGEMM: the original single-threaded scalar kernel
 * (cache-blocked saxpy loops). Used by the differential test
 * battery and as the microbenchmark baseline; not a hot path.
 */
void sgemm_naive(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
                 int64_t k, float alpha, const float *a, int64_t lda,
                 const float *b, int64_t ldb, float beta, float *c,
                 int64_t ldc);

/**
 * Matrix-vector multiply y = A * x with A stored row-major (m x n).
 * Routed through sgemm's n == 1 fast path, so it inherits the
 * kernel's threading and determinism guarantees.
 */
void sgemv(int64_t m, int64_t n, const float *a, const float *x,
           float *y);

// ---------------------------------------------------------------
// Low-precision kernels (DESIGN.md §14). Same blocking, packing,
// and row-ownership structure as sgemm; both are bit-identical
// across runs and thread counts per precision.
// ---------------------------------------------------------------

/**
 * bf16 GEMM: C = alpha * op(A) * op(B) + beta * C where A and B are
 * rounded to bfloat16 (round-to-nearest-even) as they are packed
 * into panels. Accumulation stays f32 in the same fixed order as
 * sgemm, so the result is deterministic on every host; the error
 * against sgemm is bounded by the bf16 unit roundoff (2^-8 relative
 * per operand, so ~k * 2^-8 per dot product).
 */
void gemm_bf16(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
               int64_t k, float alpha, const float *a, int64_t lda,
               const float *b, int64_t ldb, float beta, float *c,
               int64_t ldc);

/**
 * int8 GEMM, activations on the left (the fully connected layer
 * orientation): C = alpha * deq(q(A) * Bq) + beta * C.
 *
 * op(A) (m x k, f32) is quantized to unsigned 8-bit codes with the
 * per-tensor affine mapping @p aq as it is packed; @p b holds
 * pre-quantized signed 8-bit weight codes in the same storage
 * layout sgemm expects of B (ldb-strided, trans_b applies), with
 * symmetric per-output-channel scales @p b_scales — one per column
 * j of op(B). Accumulation is exact int32 (AVX-512 VNNI vpdpbusd
 * when available, a bit-identical scalar loop otherwise); the
 * zero-point correction and scale/dequant happen once per output
 * element on store. Requires k <= 1 << 16 so the int32 accumulators
 * cannot overflow.
 */
void gemm_s8(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
             int64_t k, float alpha, const float *a, int64_t lda,
             const QuantParams &aq, const int8_t *b, int64_t ldb,
             const float *b_scales, float beta, float *c,
             int64_t ldc);

/**
 * int8 GEMM, weights on the left (the convolution orientation):
 * C = alpha * deq(Aq * q(B)) + beta * C.
 *
 * op(A) (m x k) holds pre-quantized signed 8-bit weight codes with
 * symmetric per-output-channel scales @p a_scales — one per row i
 * of op(A); op(B) (k x n, f32) is quantized per tensor with the
 * affine signed-8 mapping @p bq as it is packed. Same accumulation
 * and determinism guarantees as gemm_s8.
 */
void gemm_s8_wl(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
                int64_t k, float alpha, const int8_t *a, int64_t lda,
                const float *a_scales, const float *b, int64_t ldb,
                const QuantParams &bq, float beta, float *c,
                int64_t ldc);

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_GEMM_HH
