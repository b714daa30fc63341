/**
 * @file
 * Fully connected (inner product) layer: out = in * W^T + b.
 */

#ifndef DJINN_NN_LAYERS_INNER_PRODUCT_HH
#define DJINN_NN_LAYERS_INNER_PRODUCT_HH

#include "nn/layer.hh"

namespace djinn {
namespace nn {

/**
 * Fully connected layer. The input sample is flattened to a vector
 * of length c*h*w; weights are (outputs x inputs), row-major as
 * params() shows them. At f32, packWeights() reorders them in place
 * into the band-major panels sgemm_packed streams (packBands).
 */
class InnerProductLayer : public Layer
{
  public:
    /**
     * @param name layer name.
     * @param outputs number of output neurons.
     * @param bias whether a bias vector is learned.
     */
    InnerProductLayer(std::string name, int64_t outputs,
                      bool bias = true);

    uint64_t paramCount() const override;

    /** Number of output neurons. */
    int64_t outputs() const { return outputs_; }

    /** Flattened input length (valid after setup). */
    int64_t inputs() const { return inputs_; }

    uint64_t
    flopsPerSample() const override
    {
        return 2ull * static_cast<uint64_t>(inputs_) *
               static_cast<uint64_t>(outputs_);
    }

    /** The bias vector; empty when bias is disabled. */
    const Tensor &bias() const { return bias_; }

    /** FC lowers to bf16 (storage rounding) and int8. */
    bool
    supportsPrecision(Precision p) const override
    {
        (void)p;
        return true;
    }

    LayerQuant calibrate(const Tensor &in) const override;

  protected:
    std::vector<Tensor *> paramTensors() override;
    void packParam(size_t i, Tensor &t) const override;
    void unpackParam(size_t i, Tensor &t) const override;
    Shape setupImpl(const Shape &input) override;
    void forwardImpl(const Tensor &in, Tensor &out) const override;
    void onPrecisionChanged() override;

  private:
    int64_t outputs_;
    bool hasBias_;
    int64_t inputs_ = 0;
    Tensor weights_;
    Tensor bias_;

    /** int8 weight codes (outputs x inputs), rebuilt on lowering. */
    std::vector<int8_t> weights8_;
};

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_LAYERS_INNER_PRODUCT_HH
