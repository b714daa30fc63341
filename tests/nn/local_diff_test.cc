/**
 * @file
 * Differential test for the locally connected layer: its packed,
 * position-blocked forward pass against the scalar loop it replaced
 * (classic im2col, then one sequential dot product per output
 * position), kept here as the oracle. Both sum each position's
 * filter in the same order, so outputs must be bit-identical
 * (memcmp) at pool sizes 1, 2 and 4. Geometries cover output maps
 * that are a multiple of 16 positions, ones that leave a partial
 * block per channel, and ones smaller than one block.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "nn/layers/convolution.hh"
#include "nn/layers/locally_connected.hh"

namespace djinn {
namespace nn {
namespace {

/** Restores the global pool to its automatic size on scope exit. */
struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

Tensor
randomTensor(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.elems(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

/** The scalar forward pass the packed kernel replaced. */
Tensor
referenceLocal(const LocallyConnectedLayer &lc, const Tensor &in,
               const Tensor &weights, const Tensor &bias)
{
    const Shape &is = lc.inputShape();
    const Shape &os = lc.outputShape();
    int64_t patch = is.c() * lc.kernel() * lc.kernel();
    int64_t cols = os.h() * os.w();
    Tensor out(os.withBatch(in.shape().n()));
    std::vector<float> col(static_cast<size_t>(patch * cols));
    for (int64_t n = 0; n < in.shape().n(); ++n) {
        im2col(in.sample(n), is.c(), is.h(), is.w(), lc.kernel(),
               lc.kernel(), lc.pad(), lc.stride(), col.data());
        float *dst = out.sample(n);
        for (int64_t oc = 0; oc < lc.outChannels(); ++oc) {
            for (int64_t pos = 0; pos < cols; ++pos) {
                const float *filter =
                    weights.data() + (oc * cols + pos) * patch;
                float acc = 0.0f;
                for (int64_t p = 0; p < patch; ++p)
                    acc += filter[p] * col[p * cols + pos];
                dst[oc * cols + pos] = acc;
            }
        }
        for (int64_t i = 0; i < lc.outChannels() * cols; ++i)
            dst[i] += bias[i];
    }
    return out;
}

struct LocalCase {
    int64_t in_c, in_h, out_c, kernel, stride, pad, batch;
};

/** Prints the geometry, which gtest and ctest then use as the id. */
void
PrintTo(const LocalCase &c, std::ostream *os)
{
    *os << "in" << c.in_c << "_h" << c.in_h << "_out" << c.out_c
        << "_k" << c.kernel << "_s" << c.stride << "_p" << c.pad
        << "_n" << c.batch;
}

class LocallyConnectedDiff : public ::testing::TestWithParam<LocalCase>
{};

TEST_P(LocallyConnectedDiff, MatchesScalarLoopBitExactly)
{
    PoolSizeGuard guard;
    LocalCase c = GetParam();
    LocallyConnectedLayer lc("lc", c.out_c, c.kernel, c.stride, c.pad);
    lc.setup(Shape(1, c.in_c, c.in_h, c.in_h));
    auto params = lc.params();
    Rng rng(c.in_h * 31 + c.out_c);
    for (Tensor *t : params) {
        for (int64_t i = 0; i < t->elems(); ++i)
            (*t)[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    Tensor weights = *params[0];
    Tensor bias = *params[1];
    Tensor in = randomTensor(
        Shape(c.batch, c.in_c, c.in_h, c.in_h), c.kernel * 7 + 1);
    Tensor want = referenceLocal(lc, in, weights, bias);

    for (int threads : {1, 2, 4}) {
        common::setComputeThreads(threads);
        Tensor out;
        lc.forward(in, out); // packs the weights on first use
        ASSERT_TRUE(lc.weightsPacked());
        ASSERT_EQ(out.shape(), want.shape());
        ASSERT_EQ(std::memcmp(out.data(), want.data(),
                              static_cast<size_t>(out.elems()) *
                                  sizeof(float)),
                  0)
            << "threads=" << threads;
    }

    // params() hands back the row-major weights, and a forward after
    // that packs them again.
    Tensor roundTrip = lc.paramValues(0);
    ASSERT_EQ(std::memcmp(roundTrip.data(), weights.data(),
                          static_cast<size_t>(weights.elems()) *
                              sizeof(float)),
              0);
    ASSERT_EQ(std::memcmp(lc.params()[0]->data(), weights.data(),
                          static_cast<size_t>(weights.elems()) *
                              sizeof(float)),
              0);
    ASSERT_FALSE(lc.weightsPacked());
    Tensor again;
    lc.forward(in, again);
    ASSERT_EQ(std::memcmp(again.data(), want.data(),
                          static_cast<size_t>(want.elems()) *
                              sizeof(float)),
              0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LocallyConnectedDiff,
    ::testing::Values(
        // 4x4 = 16 positions: one whole block per channel.
        LocalCase{3, 6, 2, 3, 1, 0, 1},
        // 9x9 = 81: five blocks and one position over, per channel.
        LocalCase{2, 9, 3, 3, 1, 1, 1},
        // 6x6 = 36 with stride and padding, batch of two.
        LocalCase{4, 11, 5, 3, 2, 1, 2},
        // 3x3 = 9: smaller than one block, all row-major.
        LocalCase{3, 7, 4, 5, 1, 0, 1},
        // DeepFace l6's shape: 21x21 = 441 positions, 400-long
        // filters, 16 channels.
        LocalCase{16, 25, 16, 5, 1, 0, 1}));

} // namespace
} // namespace nn
} // namespace djinn
