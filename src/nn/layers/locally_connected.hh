/**
 * @file
 * Locally connected layer: convolution-like geometry with *untied*
 * weights, i.e. every output position learns its own filter. Used by
 * DeepFace (layers L4-L6), where it accounts for most of the 120M
 * parameters.
 */

#ifndef DJINN_NN_LAYERS_LOCALLY_CONNECTED_HH
#define DJINN_NN_LAYERS_LOCALLY_CONNECTED_HH

#include "nn/layer.hh"

namespace djinn {
namespace nn {

/**
 * Locally connected 2D layer. Weight layout is
 * (out_c * out_h * out_w, in_c, kh, kw): one private filter per
 * output element, row-major as params() shows them. Because no
 * weights are shared, the layer's parameter footprint scales with
 * the output map size, and a forward pass must stream the full
 * weight set from memory once per sample — the property that makes
 * FACE memory-bound in the paper. packWeights() reorders each
 * channel's filters in place in bands of kPackBand positions
 * (packBands), so a pass streams the weights and a position-blocked
 * im2col buffer side by side.
 */
class LocallyConnectedLayer : public Layer
{
  public:
    /**
     * @param name layer name.
     * @param out_channels filters per output position.
     * @param kernel square kernel size.
     * @param stride window stride.
     * @param pad zero padding on each border.
     * @param bias whether a per-output-element bias is learned.
     */
    LocallyConnectedLayer(std::string name, int64_t out_channels,
                          int64_t kernel, int64_t stride = 1,
                          int64_t pad = 0, bool bias = true);

    uint64_t paramCount() const override;

    int64_t outChannels() const { return outChannels_; }
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }
    int64_t pad() const { return pad_; }

    uint64_t
    flopsPerSample() const override
    {
        uint64_t positions = static_cast<uint64_t>(
            outChannels_ * outputShape().h() * outputShape().w());
        uint64_t patch = static_cast<uint64_t>(
            inputShape().c() * kernel_ * kernel_);
        return 2ull * positions * patch;
    }

  protected:
    std::vector<Tensor *> paramTensors() override;
    void packParam(size_t i, Tensor &t) const override;
    void unpackParam(size_t i, Tensor &t) const override;
    Shape setupImpl(const Shape &input) override;
    void forwardImpl(const Tensor &in, Tensor &out) const override;

  private:
    int64_t outChannels_;
    int64_t kernel_;
    int64_t stride_;
    int64_t pad_;
    bool hasBias_;
    Tensor weights_;
    Tensor bias_;
};

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_LAYERS_LOCALLY_CONNECTED_HH
