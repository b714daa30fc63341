/**
 * @file
 * Property-based tests on inference-library invariants: pooling
 * against a naive reference over a geometry sweep, convolution
 * linearity, batch-order independence, and softmax invariances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/rng.hh"
#include "nn/init.hh"
#include "nn/layers/pooling.hh"
#include "nn/layers/convolution.hh"
#include "nn/layers/softmax.hh"
#include "nn/net_def.hh"

namespace djinn {
namespace nn {
namespace {

Tensor
randomTensor(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.elems(); ++i)
        t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    return t;
}

// Pooling vs naive reference over a geometry sweep ------------------

struct PoolCase {
    int64_t size, kernel, stride, pad;
    bool max_pool;
};

/** Prints the geometry, which gtest and ctest then use as the id. */
void
PrintTo(const PoolCase &c, std::ostream *os)
{
    *os << (c.max_pool ? "max" : "avg") << "_size" << c.size << "_k"
        << c.kernel << "_s" << c.stride << "_p" << c.pad;
}

class PoolingProperty : public ::testing::TestWithParam<PoolCase>
{};

TEST_P(PoolingProperty, MatchesNaiveReference)
{
    PoolCase p = GetParam();
    PoolingLayer pool("pool",
                      p.max_pool ? LayerKind::MaxPool
                                 : LayerKind::AvgPool,
                      p.kernel, p.stride, p.pad);
    pool.setup(Shape(1, 2, p.size, p.size));
    Tensor in = randomTensor(Shape(2, 2, p.size, p.size),
                             p.size * 131 + p.kernel);
    Tensor out;
    pool.forward(in, out);

    const Shape &os = pool.outputShape();
    for (int64_t n = 0; n < 2; ++n) {
        for (int64_t c = 0; c < 2; ++c) {
            for (int64_t oh = 0; oh < os.h(); ++oh) {
                for (int64_t ow = 0; ow < os.w(); ++ow) {
                    double best = p.max_pool ? -1e30 : 0.0;
                    int64_t count = 0;
                    for (int64_t kh = 0; kh < p.kernel; ++kh) {
                        for (int64_t kw = 0; kw < p.kernel; ++kw) {
                            int64_t ih = oh * p.stride - p.pad + kh;
                            int64_t iw = ow * p.stride - p.pad + kw;
                            if (ih < 0 || ih >= p.size || iw < 0 ||
                                iw >= p.size) {
                                continue;
                            }
                            double v = in.at(n, c, ih, iw);
                            if (p.max_pool)
                                best = std::max(best, v);
                            else
                                best += v;
                            ++count;
                        }
                    }
                    if (!p.max_pool && count > 0)
                        best /= count;
                    ASSERT_NEAR(out.at(n, c, oh, ow), best, 1e-5)
                        << "at " << n << "," << c << "," << oh
                        << "," << ow;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PoolingProperty,
    ::testing::Values(PoolCase{8, 2, 2, 0, true},
                      PoolCase{8, 2, 2, 0, false},
                      PoolCase{9, 3, 2, 0, true},
                      PoolCase{9, 3, 2, 0, false},
                      PoolCase{7, 3, 3, 1, true},
                      PoolCase{7, 3, 3, 1, false},
                      PoolCase{13, 3, 2, 0, true},
                      PoolCase{5, 5, 1, 2, false},
                      PoolCase{6, 1, 1, 0, true}));

// Convolution linearity ----------------------------------------------

TEST(ConvProperty, LinearInInputWithoutBias)
{
    ConvolutionLayer conv("c", 4, 3, 1, 1, 1, false);
    conv.setup(Shape(1, 3, 8, 8));
    Rng rng(5);
    for (Tensor *param : conv.params()) {
        for (int64_t i = 0; i < param->elems(); ++i)
            (*param)[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    Tensor x = randomTensor(Shape(1, 3, 8, 8), 6);
    Tensor scaled = x;
    for (int64_t i = 0; i < scaled.elems(); ++i)
        scaled[i] *= 3.0f;
    Tensor y1, y2;
    conv.forward(x, y1);
    conv.forward(scaled, y2);
    for (int64_t i = 0; i < y1.elems(); ++i)
        ASSERT_NEAR(y2[i], 3.0f * y1[i], 1e-3);
}

TEST(ConvProperty, AdditiveInInputWithoutBias)
{
    ConvolutionLayer conv("c", 2, 3, 1, 0, 1, false);
    conv.setup(Shape(1, 2, 6, 6));
    Rng rng(8);
    for (Tensor *param : conv.params()) {
        for (int64_t i = 0; i < param->elems(); ++i)
            (*param)[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    Tensor a = randomTensor(Shape(1, 2, 6, 6), 10);
    Tensor b = randomTensor(Shape(1, 2, 6, 6), 11);
    Tensor sum(Shape(1, 2, 6, 6));
    for (int64_t i = 0; i < sum.elems(); ++i)
        sum[i] = a[i] + b[i];
    Tensor ya, yb, ys;
    conv.forward(a, ya);
    conv.forward(b, yb);
    conv.forward(sum, ys);
    for (int64_t i = 0; i < ys.elems(); ++i)
        ASSERT_NEAR(ys[i], ya[i] + yb[i], 1e-3);
}

// Batch-order independence -------------------------------------------

class BatchOrderProperty : public ::testing::TestWithParam<int>
{};

TEST_P(BatchOrderProperty, NetworkOutputIndependentOfRowOrder)
{
    auto net = parseNetDefOrDie(
        "name p\ninput 2 6 6\n"
        "layer c conv out 4 kernel 3 pad 1\n"
        "layer r relu\n"
        "layer p maxpool kernel 2 stride 2\n"
        "layer f fc out 5\n"
        "layer s softmax\n");
    initializeWeights(*net, 33);

    int batch = GetParam();
    Tensor in = randomTensor(Shape(batch, 2, 6, 6), 100 + batch);
    Tensor out = net->forward(in);

    // Reverse the batch and verify outputs reverse with it.
    Tensor reversed(in.shape());
    for (int64_t n = 0; n < batch; ++n) {
        std::copy(in.sample(n),
                  in.sample(n) + in.shape().sampleElems(),
                  reversed.sample(batch - 1 - n));
    }
    Tensor out_rev = net->forward(reversed);
    int64_t out_elems = out.shape().sampleElems();
    for (int64_t n = 0; n < batch; ++n) {
        for (int64_t i = 0; i < out_elems; ++i) {
            ASSERT_NEAR(out.sample(n)[i],
                        out_rev.sample(batch - 1 - n)[i], 1e-5);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchOrderProperty,
                         ::testing::Values(1, 2, 3, 7, 16));

// Softmax invariances ---------------------------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SoftmaxProperty, ShiftInvariant)
{
    int dim = GetParam();
    SoftmaxLayer sm("s");
    sm.setup(Shape(1, dim));
    Tensor x = randomTensor(Shape(1, dim), 7 * dim);
    Tensor shifted = x;
    for (int64_t i = 0; i < dim; ++i)
        shifted[i] += 42.0f;
    Tensor y1, y2;
    sm.forward(x, y1);
    sm.forward(shifted, y2);
    for (int64_t i = 0; i < dim; ++i)
        ASSERT_NEAR(y1[i], y2[i], 1e-5);
}

TEST_P(SoftmaxProperty, OutputsAreAProbability)
{
    int dim = GetParam();
    SoftmaxLayer sm("s");
    sm.setup(Shape(1, dim));
    Tensor x = randomTensor(Shape(3, dim), 13 * dim);
    Tensor y;
    sm.forward(x, y);
    for (int64_t n = 0; n < 3; ++n) {
        double sum = 0;
        for (int64_t i = 0; i < dim; ++i) {
            ASSERT_GE(y.sample(n)[i], 0.0f);
            ASSERT_LE(y.sample(n)[i], 1.0f);
            sum += y.sample(n)[i];
        }
        ASSERT_NEAR(sum, 1.0, 1e-5);
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, SoftmaxProperty,
                         ::testing::Values(2, 10, 45, 1000));

} // namespace
} // namespace nn
} // namespace djinn
