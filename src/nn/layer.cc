#include "nn/layer.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace djinn {
namespace nn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::InnerProduct: return "fc";
      case LayerKind::Convolution: return "conv";
      case LayerKind::LocallyConnected: return "local";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::AvgPool: return "avgpool";
      case LayerKind::ReLU: return "relu";
      case LayerKind::Tanh: return "tanh";
      case LayerKind::Sigmoid: return "sigmoid";
      case LayerKind::HardTanh: return "hardtanh";
      case LayerKind::LRN: return "lrn";
      case LayerKind::Softmax: return "softmax";
      case LayerKind::Dropout: return "dropout";
      case LayerKind::Flatten: return "flatten";
    }
    return "unknown";
}

LayerKind
layerKindFromName(const std::string &name)
{
    static const std::pair<const char *, LayerKind> table[] = {
        {"fc", LayerKind::InnerProduct},
        {"conv", LayerKind::Convolution},
        {"local", LayerKind::LocallyConnected},
        {"maxpool", LayerKind::MaxPool},
        {"avgpool", LayerKind::AvgPool},
        {"relu", LayerKind::ReLU},
        {"tanh", LayerKind::Tanh},
        {"sigmoid", LayerKind::Sigmoid},
        {"hardtanh", LayerKind::HardTanh},
        {"lrn", LayerKind::LRN},
        {"softmax", LayerKind::Softmax},
        {"dropout", LayerKind::Dropout},
        {"flatten", LayerKind::Flatten},
    };
    for (const auto &[key, kind] : table) {
        if (name == key)
            return kind;
    }
    fatal("unknown layer kind '%s'", name.c_str());
}

void
Layer::setup(const Shape &input)
{
    if (isSetUp_)
        panic("layer '%s' set up twice", name_.c_str());
    inputShape_ = Shape(1, input.c(), input.h(), input.w());
    outputShape_ = setupImpl(inputShape_);
    isSetUp_ = true;
}

void
Layer::forward(const Tensor &in, Tensor &out) const
{
    if (!isSetUp_)
        panic("layer '%s' forward before setup", name_.c_str());
    const Shape &s = in.shape();
    if (s.c() != inputShape_.c() || s.h() != inputShape_.h() ||
        s.w() != inputShape_.w()) {
        fatal("layer '%s': input %s does not match expected %s",
              name_.c_str(), s.toString().c_str(),
              inputShape_.toString().c_str());
    }
    if (!weightsPacked()) {
        // Weights that changed since the last pass (or were never
        // packed) are packed once, under packMutex_; the layer is
        // logically unchanged, so forward stays const.
        const_cast<Layer *>(this)->packWeights();
    }
    out.resize(outputShape_.withBatch(s.n()));
    forwardImpl(in, out);
}

std::vector<Tensor *>
Layer::params()
{
    unpackWeights();
    return paramTensors();
}

std::vector<const Tensor *>
Layer::params() const
{
    auto stored = const_cast<Layer *>(this)->paramTensors();
    return {stored.begin(), stored.end()};
}

Tensor
Layer::paramValues(size_t i) const
{
    std::lock_guard<std::mutex> lock(packMutex_);
    Tensor copy = *const_cast<Layer *>(this)->paramTensors().at(i);
    if (packed_.load(std::memory_order_relaxed))
        unpackParam(i, copy);
    return copy;
}

void
Layer::packWeights()
{
    std::lock_guard<std::mutex> lock(packMutex_);
    if (packed_.load(std::memory_order_relaxed))
        return;
    auto stored = paramTensors();
    for (size_t i = 0; i < stored.size(); ++i)
        packParam(i, *stored[i]);
    packed_.store(true, std::memory_order_release);
}

void
Layer::unpackWeights()
{
    std::lock_guard<std::mutex> lock(packMutex_);
    if (!packed_.load(std::memory_order_relaxed))
        return;
    auto stored = paramTensors();
    for (size_t i = 0; i < stored.size(); ++i)
        unpackParam(i, *stored[i]);
    packed_.store(false, std::memory_order_relaxed);
}

void
Layer::setPrecision(Precision p, LayerQuant q)
{
    if (!isSetUp_)
        panic("layer '%s': setPrecision before setup", name_.c_str());
    if (!supportsPrecision(p)) {
        fatal("layer '%s' (%s) does not support precision %s",
              name_.c_str(), layerKindName(kind_), precisionName(p));
    }
    unpackWeights(); // lowering reads the row-major weights
    precision_ = p;
    quant_ = std::move(q);
    onPrecisionChanged();
}

uint64_t
Layer::flopsPerSample() const
{
    uint64_t out_elems =
        static_cast<uint64_t>(outputShape_.sampleElems());
    switch (kind_) {
      case LayerKind::Dropout:
      case LayerKind::Flatten:
        return 0;
      case LayerKind::Softmax:
        return 4 * out_elems;
      default:
        // ReLU/Tanh/Sigmoid/HardTanh: one op + one store pass.
        return 2 * out_elems;
    }
}

std::string
Layer::describe() const
{
    std::string s =
        strprintf("%s (%s): %s -> %s, %lu params", name_.c_str(),
                  layerKindName(kind_),
                  inputShape_.toString().c_str(),
                  outputShape_.toString().c_str(),
                  static_cast<unsigned long>(paramCount()));
    if (precision_ != Precision::F32)
        s += strprintf(" [%s]", precisionName(precision_));
    return s;
}

} // namespace nn
} // namespace djinn
