/**
 * @file
 * 2D convolution layer with stride, zero padding, and grouped
 * convolution (as used by AlexNet), implemented Caffe-style as
 * im2col followed by SGEMM.
 */

#ifndef DJINN_NN_LAYERS_CONVOLUTION_HH
#define DJINN_NN_LAYERS_CONVOLUTION_HH

#include "nn/layer.hh"

namespace djinn {
namespace nn {

/**
 * Expand image patches into columns: for each output position, one
 * column holding the receptive field (channels x kh x kw). Output
 * buffer layout is (c*kh*kw) rows by (out_h*out_w) columns,
 * row-major.
 */
void im2col(const float *data, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w,
            int64_t pad, int64_t stride, float *col);

/**
 * Inverse of im2col: scatter-add columns back into an image
 * (gradient routing for convolution training). @p data must be
 * zeroed by the caller.
 */
void col2im(const float *col, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_h, int64_t kernel_w,
            int64_t pad, int64_t stride, float *data);

/** Spatial output size for a conv/pool window. */
int64_t convOutSize(int64_t in, int64_t kernel, int64_t pad,
                    int64_t stride);

/**
 * Grouped 2D convolution. Weights are stored (out_c, in_c/groups,
 * kh, kw). Output geometry follows the usual
 * floor((in + 2*pad - kernel) / stride) + 1 rule.
 */
class ConvolutionLayer : public Layer
{
  public:
    /**
     * @param name layer name.
     * @param out_channels number of learned filters.
     * @param kernel square kernel size.
     * @param stride window stride (>= 1).
     * @param pad zero padding on each border.
     * @param groups input/output channel groups (AlexNet uses 2).
     * @param bias whether a per-filter bias is learned.
     */
    ConvolutionLayer(std::string name, int64_t out_channels,
                     int64_t kernel, int64_t stride = 1,
                     int64_t pad = 0, int64_t groups = 1,
                     bool bias = true);

    uint64_t paramCount() const override;

    int64_t outChannels() const { return outChannels_; }
    int64_t kernel() const { return kernel_; }
    int64_t stride() const { return stride_; }
    int64_t pad() const { return pad_; }
    int64_t groups() const { return groups_; }

    uint64_t
    flopsPerSample() const override
    {
        uint64_t cols = static_cast<uint64_t>(
            outputShape().h() * outputShape().w());
        uint64_t patch = static_cast<uint64_t>(
            (inputShape().c() / groups_) * kernel_ * kernel_);
        uint64_t out_per_group =
            static_cast<uint64_t>(outChannels_ / groups_);
        return 2ull * static_cast<uint64_t>(groups_) *
               out_per_group * cols * patch;
    }

    /** The (out_c, in_c/groups, kh, kw) filter bank. */
    const Tensor &weights() const { return weights_; }

    /** Convolution lowers to bf16 (storage rounding) and int8. */
    bool
    supportsPrecision(Precision p) const override
    {
        (void)p;
        return true;
    }

    LayerQuant calibrate(const Tensor &in) const override;

  protected:
    std::vector<Tensor *> paramTensors() override;
    Shape setupImpl(const Shape &input) override;
    void forwardImpl(const Tensor &in, Tensor &out) const override;
    void onPrecisionChanged() override;

  private:
    int64_t outChannels_;
    int64_t kernel_;
    int64_t stride_;
    int64_t pad_;
    int64_t groups_;
    bool hasBias_;
    Tensor weights_;
    Tensor bias_;

    /** int8 filter codes (same layout), rebuilt on lowering. */
    std::vector<int8_t> weights8_;
};

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_LAYERS_CONVOLUTION_HH
