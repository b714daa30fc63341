/**
 * @file
 * Differential test battery for the packed/blocked SGEMM kernel:
 * every (shape, transpose, stride, scale) combination is checked
 * against the reference scalar kernel (sgemm_naive), at 1, 2, and 8
 * compute threads. The two kernels accumulate in different orders,
 * so results are compared within an explicit error bound derived
 * from the accumulation depth k, not bit-exactly; bit-exactness
 * *across thread counts* of the fast kernel itself is asserted by
 * determinism_test.cc and by the checksum comparison here.
 *
 * The PackedFcDiff suite checks the fully connected path over
 * packed weights (packBands + sgemm_packed) against the generic
 * sgemm on the same row-major weights: bit-identical (memcmp) at
 * pool sizes 1, 2 and 4, and within the same bound of sgemm_naive.
 */

#include "nn/gemm.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {
namespace {

/** Restores the global pool to its automatic size on scope exit. */
struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

/**
 * Error bound for comparing the blocked kernel against the
 * reference. Both kernels compute the same k-term dot products in
 * different association orders; with inputs in [-1, 1] each partial
 * sum is bounded by k, and reassociating a k-term float sum
 * perturbs it by at most ~k * eps * max|partial sum|. The fast
 * kernel's build also disables FMA contraction (-ffp-contract=off),
 * so no extra contraction term appears. 8 ulp of slack covers the
 * alpha/beta scaling arithmetic.
 */
float
errorBound(int64_t k, float alpha)
{
    float eps = 1.19209290e-07f; // FLT_EPSILON
    float mag = static_cast<float>(k) * std::max(1.0f,
                                                 std::fabs(alpha));
    return 2.0f * eps * static_cast<float>(k) * mag + 8.0f * eps;
}

void
fillUniform(std::vector<float> &v, djinn::Rng &rng)
{
    for (float &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/** FNV-1a over the float bit patterns: detects any bit difference. */
uint64_t
bitChecksum(const std::vector<float> &v)
{
    uint64_t h = 1469598103934665603ULL;
    for (float x : v) {
        uint32_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        for (int i = 0; i < 4; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

struct Case {
    int64_t m, n, k;
    Trans ta, tb;
    int64_t lda, ldb, ldc;
    float alpha, beta;
};

/**
 * Runs one case: reference once, fast kernel at each thread count.
 * Asserts (a) fast stays within the error bound of the reference
 * and (b) fast output bits are identical at every thread count.
 */
void
runCase(const Case &cs, djinn::Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
                 << " ta=" << (cs.ta == Trans::Yes) << " tb="
                 << (cs.tb == Trans::Yes) << " lda=" << cs.lda
                 << " ldb=" << cs.ldb << " ldc=" << cs.ldc
                 << " alpha=" << cs.alpha << " beta=" << cs.beta);

    // A as stored: m x k rows if untransposed, k x m if transposed.
    int64_t aRows = cs.ta == Trans::No ? cs.m : cs.k;
    int64_t bRows = cs.tb == Trans::No ? cs.k : cs.n;
    std::vector<float> a(static_cast<size_t>(aRows * cs.lda));
    std::vector<float> b(static_cast<size_t>(bRows * cs.ldb));
    std::vector<float> c0(static_cast<size_t>(cs.m * cs.ldc));
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(c0, rng);

    std::vector<float> want = c0;
    sgemm_naive(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                cs.lda, b.data(), cs.ldb, cs.beta, want.data(),
                cs.ldc);

    float bound = errorBound(cs.k, cs.alpha);
    uint64_t firstSum = 0;
    bool haveFirst = false;
    for (int threads : {1, 2, 8}) {
        common::setComputeThreads(threads);
        std::vector<float> got = c0;
        sgemm(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
              cs.lda, b.data(), cs.ldb, cs.beta, got.data(),
              cs.ldc);
        for (int64_t i = 0; i < cs.m; ++i) {
            for (int64_t j = 0; j < cs.n; ++j) {
                size_t at = static_cast<size_t>(i * cs.ldc + j);
                ASSERT_NEAR(got[at], want[at], bound)
                    << "threads=" << threads << " i=" << i
                    << " j=" << j;
            }
        }
        // Padding columns beyond n must never be written.
        for (int64_t i = 0; i < cs.m; ++i) {
            for (int64_t j = cs.n; j < cs.ldc; ++j) {
                size_t at = static_cast<size_t>(i * cs.ldc + j);
                ASSERT_EQ(got[at], c0[at])
                    << "pad clobbered at i=" << i << " j=" << j;
            }
        }
        uint64_t sum = bitChecksum(got);
        if (!haveFirst) {
            firstSum = sum;
            haveFirst = true;
        } else {
            ASSERT_EQ(sum, firstSum)
                << "output bits depend on thread count ("
                << threads << ")";
        }
    }
}

TEST(GemmDiff, SweepShapesTransposesStridesScales)
{
    PoolSizeGuard guard;
    const int64_t dims[] = {1, 3, 8, 17, 64, 129};
    const float scales[] = {0.0f, 1.0f, 0.5f, -2.0f};
    djinn::Rng rng(0xd1f5u);

    for (int64_t m : dims) {
        for (int64_t n : dims) {
            for (int64_t k : dims) {
                // Rotate through the transpose and scale grids so
                // every value appears against every dimension
                // without exploding the case count.
                int spin = static_cast<int>(m * 31 + n * 7 + k);
                for (int tc = 0; tc < 4; ++tc) {
                    Case cs;
                    cs.m = m;
                    cs.n = n;
                    cs.k = k;
                    cs.ta = (tc & 1) ? Trans::Yes : Trans::No;
                    cs.tb = (tc & 2) ? Trans::Yes : Trans::No;
                    // Non-unit leading dimensions: stored row
                    // lengths plus a case-dependent slack.
                    int64_t aCols = cs.ta == Trans::No ? k : m;
                    int64_t bCols = cs.tb == Trans::No ? n : k;
                    cs.lda = aCols + 1 + (spin + tc) % 5;
                    cs.ldb = bCols + 2 + spin % 3;
                    cs.ldc = n + 1 + (spin + 2 * tc) % 4;
                    cs.alpha = scales[(spin + tc) % 4];
                    cs.beta = scales[(spin / 4 + tc) % 4];
                    runCase(cs, rng);
                    if (testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(GemmDiff, UnitStridesAndIdentityScales)
{
    PoolSizeGuard guard;
    djinn::Rng rng(7);
    // The most common production configuration deserves an
    // unrotated pass: alpha=1, beta=0, packed strides.
    for (int64_t m : {1, 8, 17, 129}) {
        for (int64_t n : {1, 16, 64}) {
            for (int64_t k : {3, 64, 129}) {
                Case cs{m,        n,    k,    Trans::No, Trans::No,
                        k,        n,    n,    1.0f,      0.0f};
                runCase(cs, rng);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(GemmDiff, LargeSingleShapeAgainstReference)
{
    PoolSizeGuard guard;
    djinn::Rng rng(99);
    // One shape big enough to cross the KC/MC blocking boundaries
    // (k > 256 forces multiple packed slices, m > 64 multiple row
    // blocks).
    Case cs{300,  257,  520,  Trans::No, Trans::No,
            520,  257,  257,  1.0f,      0.5f};
    runCase(cs, rng);
}

TEST(GemmDiff, SgemvMatchesSgemm)
{
    PoolSizeGuard guard;
    djinn::Rng rng(1234);
    for (int64_t m : {1, 7, 64, 301}) {
        for (int64_t n : {1, 13, 250, 600}) {
            std::vector<float> a(static_cast<size_t>(m * n));
            std::vector<float> x(static_cast<size_t>(n));
            fillUniform(a, rng);
            fillUniform(x, rng);

            std::vector<float> viaGemv(static_cast<size_t>(m));
            sgemv(m, n, a.data(), x.data(), viaGemv.data());

            std::vector<float> viaGemm(static_cast<size_t>(m),
                                       123.0f);
            sgemm(Trans::No, Trans::No, m, 1, n, 1.0f, a.data(), n,
                  x.data(), 1, 0.0f, viaGemm.data(), 1);

            // Same routing, same kernel: bit-identical, not just
            // close.
            for (int64_t i = 0; i < m; ++i)
                ASSERT_EQ(viaGemv[static_cast<size_t>(i)],
                          viaGemm[static_cast<size_t>(i)])
                    << "m=" << m << " n=" << n << " i=" << i;
        }
    }
}

// Packed fully connected path ----------------------------------------

/**
 * One fully connected shape: out (m x n) = in (m x k) * W^T with W
 * (n x k). The packed path must reproduce the generic sgemm's bits
 * exactly, at every pool size, and round-trip W through
 * packBands/unpackBands unchanged.
 */
void
runPackedFc(int64_t m, int64_t n, int64_t k, djinn::Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << "m=" << m << " n=" << n << " k=" << k);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> w(static_cast<size_t>(n * k));
    fillUniform(a, rng);
    fillUniform(w, rng);

    std::vector<float> want(static_cast<size_t>(m * n));
    common::setComputeThreads(2);
    sgemm(Trans::No, Trans::Yes, m, n, k, 1.0f, a.data(), k, w.data(),
          k, 0.0f, want.data(), n);

    std::vector<float> packed = w;
    packBands(packed.data(), 1, n, k);
    for (int threads : {1, 2, 4}) {
        common::setComputeThreads(threads);
        std::vector<float> got(static_cast<size_t>(m * n), NAN);
        sgemm_packed(m, n, k, a.data(), packed.data(), got.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "threads=" << threads;
    }
    unpackBands(packed.data(), 1, n, k);
    ASSERT_EQ(std::memcmp(packed.data(), w.data(),
                          w.size() * sizeof(float)),
              0);

    // The slow oracle: different summation order, so a bound.
    if (m * n * k <= (int64_t{1} << 24)) {
        std::vector<float> ref(static_cast<size_t>(m * n));
        sgemm_naive(Trans::No, Trans::Yes, m, n, k, 1.0f, a.data(), k,
                    w.data(), k, 0.0f, ref.data(), n);
        float tol = errorBound(k, 1.0f);
        for (size_t i = 0; i < ref.size(); ++i)
            ASSERT_NEAR(want[i], ref[i], tol) << "at " << i;
    }
}

TEST(PackedFcDiff, MatchesSgemmBitExactlyAtEveryPoolSize)
{
    PoolSizeGuard guard;
    djinn::Rng rng(2024);
    // Batch 1 and Kaldi's ~300 rows; partial and full MR/MC blocks;
    // partial bands (17, 83, 1000 % 16 != 0) and whole ones (4096);
    // k on both sides of one KC slice and fc6's 9216. The largest
    // products (over 2^28 multiply-adds) are left out to keep the
    // sanitizer passes short.
    for (int64_t m : {1, 3, 8, 9, 64, 65, 298}) {
        for (int64_t n : {17, 83, 1000, 4096}) {
            for (int64_t k : {255, 256, 257, 9216}) {
                if (m * n * k > (int64_t{1} << 28))
                    continue;
                runPackedFc(m, n, k, rng);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(PackedFcDiff, NarrowOutputsHaveNoBandAndStillMatch)
{
    PoolSizeGuard guard;
    djinn::Rng rng(77);
    // n < 16: W holds no full band and stays row-major; n == 1 is
    // sgemm's dot-product path.
    for (int64_t n : {1, 2, 15, 16})
        runPackedFc(5, n, 300, rng);
}

} // namespace
} // namespace nn
} // namespace djinn
