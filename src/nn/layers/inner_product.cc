#include "nn/layers/inner_product.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/gemm.hh"

namespace djinn {
namespace nn {

InnerProductLayer::InnerProductLayer(std::string name, int64_t outputs,
                                     bool bias)
    : Layer(std::move(name), LayerKind::InnerProduct),
      outputs_(outputs), hasBias_(bias)
{
    if (outputs <= 0)
        fatal("fc layer '%s': outputs must be positive, got %ld",
              this->name().c_str(), outputs);
}

Shape
InnerProductLayer::setupImpl(const Shape &input)
{
    inputs_ = input.sampleElems();
    weights_.resize(Shape(outputs_, inputs_));
    if (hasBias_)
        bias_.resize(Shape(1, outputs_));
    return Shape(1, outputs_);
}

uint64_t
InnerProductLayer::paramCount() const
{
    uint64_t n = static_cast<uint64_t>(outputs_) * inputs_;
    if (hasBias_)
        n += outputs_;
    return n;
}

std::vector<Tensor *>
InnerProductLayer::paramTensors()
{
    std::vector<Tensor *> out{&weights_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

void
InnerProductLayer::packParam(size_t i, Tensor &t) const
{
    // bf16 and int8 keep their kernels, which read W row-major.
    if (i == 0 && precision() == Precision::F32)
        packBands(t.data(), 1, outputs_, inputs_);
}

void
InnerProductLayer::unpackParam(size_t i, Tensor &t) const
{
    if (i == 0 && precision() == Precision::F32)
        unpackBands(t.data(), 1, outputs_, inputs_);
}

LayerQuant
InnerProductLayer::calibrate(const Tensor &in) const
{
    LayerQuant q;
    float lo, hi;
    minMax(in.data(), in.elems(), &lo, &hi);
    // Activations ride the unsigned side of the u8 x s8 kernel.
    q.act = QuantParams::affineU8(lo, hi);
    return q;
}

void
InnerProductLayer::onPrecisionChanged()
{
    if (precision() != Precision::Int8) {
        weights8_.clear();
        return;
    }
    LayerQuant &q = mutableQuant();
    if (q.weightScales.empty()) {
        // Derive per-output-channel scales from the weights; the
        // derivation is deterministic so it matches serialized sets.
        q.weightScales.resize(static_cast<size_t>(outputs_));
        for (int64_t o = 0; o < outputs_; ++o) {
            q.weightScales[static_cast<size_t>(o)] =
                QuantParams::symmetricS8(
                    maxAbs(weights_.data() + o * inputs_, inputs_))
                    .scale;
        }
    }
    if (q.weightScales.size() != static_cast<size_t>(outputs_)) {
        fatal("fc layer '%s': %zu weight scales for %ld outputs",
              name().c_str(), q.weightScales.size(), outputs_);
    }
    weights8_.resize(static_cast<size_t>(outputs_) * inputs_);
    for (int64_t o = 0; o < outputs_; ++o) {
        QuantParams wq;
        wq.scale = q.weightScales[static_cast<size_t>(o)];
        const float *w = weights_.data() + o * inputs_;
        int8_t *w8 = weights8_.data() + o * inputs_;
        for (int64_t i = 0; i < inputs_; ++i)
            w8[i] = static_cast<int8_t>(wq.quantize(w[i]));
    }
}

void
InnerProductLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    int64_t batch = in.shape().n();
    // out[N x outputs] = in[N x inputs] * W^T[inputs x outputs].
    // The GEMM partitions its own work across the compute pool.
    switch (precision()) {
      case Precision::Int8:
        gemm_s8(Trans::No, Trans::Yes, batch, outputs_, inputs_,
                1.0f, in.data(), inputs_, quant().act,
                weights8_.data(), inputs_,
                quant().weightScales.data(), 0.0f, out.data(),
                outputs_);
        break;
      case Precision::Bf16:
        gemm_bf16(Trans::No, Trans::Yes, batch, outputs_, inputs_,
                  1.0f, in.data(), inputs_, weights_.data(),
                  inputs_, 0.0f, out.data(), outputs_);
        break;
      case Precision::F32:
        sgemm_packed(batch, outputs_, inputs_, in.data(),
                     weights_.data(), out.data());
        break;
    }
    if (hasBias_) {
        const float *b = bias_.data();
        int64_t grain = std::max<int64_t>(
            1, 16384 / std::max<int64_t>(outputs_, 1));
        common::computePool().parallelFor(
            0, batch, grain, [&](int64_t n0, int64_t n1) {
                for (int64_t n = n0; n < n1; ++n) {
                    float *row = out.sample(n);
                    for (int64_t o = 0; o < outputs_; ++o)
                        row[o] += b[o];
                }
            });
    }
}

} // namespace nn
} // namespace djinn
