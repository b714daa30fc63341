#include "nn/layers/locally_connected.hh"

#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/gemm.hh"
#include "nn/layers/convolution.hh"
#include "nn/scratch.hh"

namespace djinn {
namespace nn {

LocallyConnectedLayer::LocallyConnectedLayer(std::string name,
                                             int64_t out_channels,
                                             int64_t kernel,
                                             int64_t stride,
                                             int64_t pad, bool bias)
    : Layer(std::move(name), LayerKind::LocallyConnected),
      outChannels_(out_channels), kernel_(kernel), stride_(stride),
      pad_(pad), hasBias_(bias)
{
    if (out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0)
        fatal("local layer '%s': invalid geometry",
              this->name().c_str());
}

Shape
LocallyConnectedLayer::setupImpl(const Shape &input)
{
    int64_t out_h = convOutSize(input.h(), kernel_, pad_, stride_);
    int64_t out_w = convOutSize(input.w(), kernel_, pad_, stride_);
    int64_t positions = outChannels_ * out_h * out_w;
    weights_.resize(Shape(positions, input.c(), kernel_, kernel_));
    if (hasBias_)
        bias_.resize(Shape(1, positions));
    return Shape(1, outChannels_, out_h, out_w);
}

uint64_t
LocallyConnectedLayer::paramCount() const
{
    uint64_t n = static_cast<uint64_t>(weights_.elems());
    if (hasBias_)
        n += static_cast<uint64_t>(bias_.elems());
    return n;
}

std::vector<Tensor *>
LocallyConnectedLayer::paramTensors()
{
    std::vector<Tensor *> out{&weights_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

void
LocallyConnectedLayer::packParam(size_t i, Tensor &t) const
{
    if (i == 0)
        packBands(t.data(), outChannels_,
                  outputShape().h() * outputShape().w(),
                  inputShape().c() * kernel_ * kernel_);
}

void
LocallyConnectedLayer::unpackParam(size_t i, Tensor &t) const
{
    if (i == 0)
        unpackBands(t.data(), outChannels_,
                    outputShape().h() * outputShape().w(),
                    inputShape().c() * kernel_ * kernel_);
}

namespace {

constexpr int64_t B = kPackBand;

/**
 * im2col into position blocks: col[(pos / B) * patch * B + p * B +
 * pos % B] holds patch element p at output position pos, so one
 * block's [patch][B] slab lines up with a packed weight band. Lanes
 * past the last position of a partial block are never read.
 */
void
im2colBlocks(const float *data, int64_t channels, int64_t height,
             int64_t width, int64_t kernel, int64_t pad,
             int64_t stride, int64_t out_h, int64_t out_w,
             float *col)
{
    int64_t patch = channels * kernel * kernel;
    common::computePool().parallelFor(
        0, patch, 16, [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; ++p) {
                int64_t c = p / (kernel * kernel);
                int64_t kh = p / kernel % kernel;
                int64_t kw = p % kernel;
                const float *plane = data + c * height * width;
                for (int64_t oh = 0; oh < out_h; ++oh) {
                    int64_t ih = oh * stride - pad + kh;
                    for (int64_t ow = 0; ow < out_w; ++ow) {
                        int64_t iw = ow * stride - pad + kw;
                        int64_t pos = oh * out_w + ow;
                        col[(pos / B * patch + p) * B + pos % B] =
                            (ih < 0 || ih >= height || iw < 0 ||
                             iw >= width)
                                ? 0.0f
                                : plane[ih * width + iw];
                    }
                }
            }
        });
}

} // namespace

void
LocallyConnectedLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    const Shape &os = outputShape();
    int64_t patch = is.c() * kernel_ * kernel_;
    int64_t cols = os.h() * os.w();
    int64_t blocks = (cols + B - 1) / B;
    int64_t full = cols / B;

    // Per sample: a position-blocked im2col, then one task per
    // (position block, output channel). A full block's weights are
    // a packed [patch][B] band, so each lane keeps the sequential
    // sum over p that a per-position dot product has; the trailing
    // partial block reads its filters row-major. Tasks run block-
    // major, so a block's im2col slab stays in cache across the
    // channels that reuse it.
    auto &pool = common::computePool();
    Scratch<float> col(static_cast<size_t>(blocks * patch * B));
    const float *w = weights_.data();
    for (int64_t n = 0; n < in.shape().n(); ++n) {
        im2colBlocks(in.sample(n), is.c(), is.h(), is.w(), kernel_,
                     pad_, stride_, os.h(), os.w(), col.data());
        float *dst = out.sample(n);
        pool.parallelFor(
            0, blocks * outChannels_, 1, [&](int64_t t0, int64_t t1) {
                for (int64_t t = t0; t < t1; ++t) {
                    int64_t blk = t / outChannels_;
                    int64_t oc = t % outChannels_;
                    const float *cb = col.data() + blk * patch * B;
                    const float *wb = w + (oc * cols + blk * B) * patch;
                    float *d = dst + oc * cols + blk * B;
                    if (blk < full) {
                        float acc[B] = {};
                        for (int64_t p = 0; p < patch; ++p)
                            for (int64_t j = 0; j < B; ++j)
                                acc[j] += wb[p * B + j] * cb[p * B + j];
                        for (int64_t j = 0; j < B; ++j)
                            d[j] = acc[j];
                        continue;
                    }
                    for (int64_t j = 0; j < cols - blk * B; ++j) {
                        const float *filter = wb + j * patch;
                        float acc = 0.0f;
                        for (int64_t p = 0; p < patch; ++p)
                            acc += filter[p] * cb[p * B + j];
                        d[j] = acc;
                    }
                }
            });
        if (hasBias_) {
            const float *b = bias_.data();
            int64_t total = outChannels_ * cols;
            for (int64_t i = 0; i < total; ++i)
                dst[i] += b[i];
        }
    }
}

} // namespace nn
} // namespace djinn
