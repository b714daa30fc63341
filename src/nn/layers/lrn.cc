#include "nn/layers/lrn.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {

LrnLayer::LrnLayer(std::string name, int64_t size, float alpha,
                   float beta, float k)
    : Layer(std::move(name), LayerKind::LRN), size_(size),
      alpha_(alpha), beta_(beta), k_(k)
{
    if (size <= 0 || size % 2 == 0)
        fatal("lrn layer '%s': window size %ld must be odd positive",
              this->name().c_str(), size);
}

Shape
LrnLayer::setupImpl(const Shape &input)
{
    return input;
}

void
LrnLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    int64_t plane = is.h() * is.w();
    int64_t half = size_ / 2;

    // One task per (sample, channel) plane; each output element's
    // arithmetic is the same whichever thread computes it.
    int64_t channels = is.c();
    int64_t grain = std::max<int64_t>(
        1, 16384 / std::max<int64_t>(plane * size_, 1));
    common::computePool().parallelFor(
        0, in.shape().n() * channels, grain,
        [&](int64_t t0, int64_t t1) {
            for (int64_t t = t0; t < t1; ++t) {
                int64_t n = t / channels;
                int64_t c = t % channels;
                const float *src = in.sample(n);
                float *dst = out.sample(n);
                int64_t c0 = std::max<int64_t>(c - half, 0);
                int64_t c1 = std::min<int64_t>(c + half, channels - 1);
                for (int64_t i = 0; i < plane; ++i) {
                    float sq = 0.0f;
                    for (int64_t cc = c0; cc <= c1; ++cc) {
                        float v = src[cc * plane + i];
                        sq += v * v;
                    }
                    float scale =
                        k_ + alpha_ / static_cast<float>(size_) * sq;
                    dst[c * plane + i] =
                        src[c * plane + i] / std::pow(scale, beta_);
                }
            }
        });
}

} // namespace nn
} // namespace djinn
