#include "nn/network.hh"

#include <chrono>
#include <optional>
#include <sstream>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/profile.hh"

namespace djinn {
namespace nn {

Network::Network(std::string name, const Shape &input)
    : name_(std::move(name)),
      inputShape_(1, input.c(), input.h(), input.w()),
      tailShape_(inputShape_)
{
    if (inputShape_.sampleElems() <= 0)
        fatal("network '%s': empty input shape", name_.c_str());
}

const Shape &
Network::outputShape() const
{
    if (!finalized_)
        panic("network '%s': outputShape before finalize",
              name_.c_str());
    return tailShape_;
}

void
Network::add(LayerPtr layer)
{
    if (finalized_)
        panic("network '%s': add after finalize", name_.c_str());
    if (findLayer(layer->name()))
        fatal("network '%s': duplicate layer name '%s'", name_.c_str(),
              layer->name().c_str());
    layer->setup(tailShape_);
    tailShape_ = layer->outputShape();
    layers_.push_back(std::move(layer));
}

void
Network::finalize()
{
    if (finalized_)
        panic("network '%s': finalize twice", name_.c_str());
    if (layers_.empty())
        fatal("network '%s': no layers", name_.c_str());
    finalized_ = true;
}

void
Network::packWeights()
{
    for (auto &l : layers_)
        l->packWeights();
}

const Layer *
Network::findLayer(const std::string &name) const
{
    for (const auto &l : layers_) {
        if (l->name() == name)
            return l.get();
    }
    return nullptr;
}

uint64_t
Network::paramCount() const
{
    uint64_t total = 0;
    for (const auto &l : layers_)
        total += l->paramCount();
    return total;
}

uint64_t
Network::weightBytes() const
{
    return paramCount() * sizeof(float);
}

void
Network::quantize(Precision precision, const Tensor &calib)
{
    if (!finalized_)
        panic("network '%s': quantize before finalize", name_.c_str());
    if (precision != Precision::Int8) {
        for (auto &l : layers_) {
            if (l->supportsPrecision(precision))
                l->setPrecision(precision);
        }
        precision_ = precision;
        return;
    }
    const Shape &cs = calib.shape();
    if (cs.n() <= 0 || cs.c() != inputShape_.c() ||
        cs.h() != inputShape_.h() || cs.w() != inputShape_.w()) {
        fatal("network '%s': calibration batch %s does not match "
              "input %s", name_.c_str(), cs.toString().c_str(),
              inputShape_.toString().c_str());
    }
    // Calibrate layer by layer: lower each layer first, then run
    // the calibration batch through it, so downstream layers see
    // the quantized activation distribution.
    Tensor cur = calib;
    Tensor next;
    for (auto &l : layers_) {
        if (l->supportsPrecision(Precision::Int8))
            l->setPrecision(Precision::Int8, l->calibrate(cur));
        l->forward(cur, next);
        std::swap(cur, next);
    }
    precision_ = Precision::Int8;
}

void
Network::applyQuantization(Precision precision,
                           const std::vector<LayerQuant> &layerQuant)
{
    if (!finalized_)
        panic("network '%s': applyQuantization before finalize",
              name_.c_str());
    if (layerQuant.size() != layers_.size()) {
        fatal("network '%s': %zu quant entries for %zu layers",
              name_.c_str(), layerQuant.size(), layers_.size());
    }
    for (size_t i = 0; i < layers_.size(); ++i) {
        Layer &l = *layers_[i];
        if (!l.supportsPrecision(precision))
            continue;
        if (precision == Precision::Int8 &&
            layerQuant[i].weightScales.empty()) {
            continue; // layer was not quantized when saved
        }
        l.setPrecision(precision, layerQuant[i]);
    }
    precision_ = precision;
}

Tensor
Network::forward(const Tensor &in) const
{
    return forward(in, nullptr);
}

Tensor
Network::forward(const Tensor &in, ProfileSink *sink) const
{
    if (!finalized_)
        panic("network '%s': forward before finalize", name_.c_str());
    // With the parallel run option off, every parallelFor under
    // this frame runs inline on the calling thread.
    std::optional<common::SerialScope> serial;
    if (!parallel())
        serial.emplace();
    using Clock = std::chrono::steady_clock;
    Tensor a = in;
    Tensor b;
    const Tensor *cur = &a;
    Tensor *next = &b;
    for (const auto &l : layers_) {
        Clock::time_point start;
        if (sink) {
            sink->onLayerStart(l->name(), l->kind());
            start = Clock::now();
        }
        l->forward(*cur, *next);
        if (sink) {
            LayerProfile p;
            p.name = l->name();
            p.kind = l->kind();
            p.seconds = std::chrono::duration<double>(
                            Clock::now() - start)
                            .count();
            uint64_t batch = static_cast<uint64_t>(
                next->shape().n());
            p.flops = l->flopsPerSample() * batch;
            p.activationBytes =
                static_cast<uint64_t>(next->shape().elems()) *
                sizeof(float);
            sink->onLayer(p);
        }
        if (cur == &a) {
            cur = &b;
            next = &a;
        } else {
            cur = &a;
            next = &b;
        }
    }
    return cur == &a ? std::move(a) : std::move(b);
}

std::string
Network::describe() const
{
    std::ostringstream os;
    os << "network " << name_ << " input "
       << inputShape_.toString();
    if (precision_ != Precision::F32)
        os << " precision " << precisionName(precision_);
    os << "\n";
    for (const auto &l : layers_)
        os << "  " << l->describe() << "\n";
    os << "  total params: " << paramCount() << " ("
       << weightBytes() / (1024.0 * 1024.0) << " MiB)\n";
    return os.str();
}

} // namespace nn
} // namespace djinn
