/**
 * @file
 * A Network is an ordered pipeline of layers with a fixed input
 * geometry, mirroring the structure of the paper's Caffe-hosted
 * models: all seven Tonic networks are layer chains.
 */

#ifndef DJINN_NN_NETWORK_HH
#define DJINN_NN_NETWORK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hh"
#include "nn/tensor.hh"

namespace djinn {
namespace nn {

class ProfileSink;

/**
 * An inference network: input geometry plus an ordered layer chain.
 * After finalize(), the network is immutable and safe to share
 * read-only between worker threads (the paper's single-copy
 * in-memory model requirement).
 */
class Network
{
  public:
    /**
     * @param name network name (e.g. "alexnet").
     * @param input per-sample input geometry (c, h, w).
     */
    Network(std::string name, const Shape &input);

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** The network's name. */
    const std::string &name() const { return name_; }

    /** The per-sample input geometry. */
    const Shape &inputShape() const { return inputShape_; }

    /** The per-sample output geometry (valid after finalize). */
    const Shape &outputShape() const;

    /**
     * Append a layer. The layer is set up against the current tail
     * shape immediately; ownership transfers to the network.
     */
    void add(LayerPtr layer);

    /** Mark construction complete. Must be called before forward(). */
    void finalize();

    /**
     * Reorder every layer's weights in place into the layout its
     * forward pass streams (Layer::packWeights), on the compute
     * pool. Call once the weights are final — after init or load
     * and any lowering; zoo::build and ModelRegistry::add do. The
     * packed network holds the same bytes, so memory does not grow.
     */
    void packWeights();

    /** True once finalize() has run. */
    bool finalized() const { return finalized_; }

    /** Number of layers. */
    size_t layerCount() const { return layers_.size(); }

    /** Layer by position. */
    const Layer &layer(size_t i) const { return *layers_[i]; }

    /** Mutable layer by position (weight loading / init). */
    Layer &layer(size_t i) { return *layers_[i]; }

    /** Layer by name; nullptr when absent. */
    const Layer *findLayer(const std::string &name) const;

    /** Total learned parameters across all layers. */
    uint64_t paramCount() const;

    /** Total parameter bytes (fp32). */
    uint64_t weightBytes() const;

    /**
     * Run the forward pass over a batch.
     *
     * @param in input of shape inputShape().withBatch(N).
     * @return the final layer's output (batch N).
     *
     * Thread safety: concurrent forward() calls on one Network are
     * safe; scratch tensors live on the caller's stack.
     */
    Tensor forward(const Tensor &in) const;

    /**
     * Forward pass with optional per-layer profiling. When @p sink
     * is non-null, one LayerProfile (wall time, FLOPs, activation
     * bytes) is emitted per layer in execution order; when null the
     * only extra cost is a pointer check per layer.
     */
    Tensor forward(const Tensor &in, ProfileSink *sink) const;

    /**
     * Run option: whether forward() may use the shared compute
     * pool for intra-layer parallelism (on by default). Turning it
     * off pins each forward pass to its calling thread — useful
     * when a server already saturates cores with concurrent
     * requests. Output bits are identical either way (DESIGN.md
     * §8). May be toggled at any time, including after finalize().
     */
    void setParallel(bool on)
    {
        parallel_.store(on, std::memory_order_relaxed);
    }

    /** Whether forward() may use the shared compute pool. */
    bool parallel() const
    {
        return parallel_.load(std::memory_order_relaxed);
    }

    /**
     * The precision the network was lowered to (F32 by default).
     * Individual layers without a lowered implementation (locally
     * connected, LRN, activations) stay f32 even when this reports
     * Bf16 or Int8.
     */
    Precision precision() const { return precision_; }

    /**
     * Lower the network to @p precision. For Int8 the activation
     * mappings are calibrated from @p calib (shape
     * inputShape().withBatch(N)): layers are visited in order, each
     * calibrated on the activations its *already-lowered*
     * predecessors produce, so calibration sees the same
     * distribution inference will. Bf16 needs no calibration
     * (@p calib may be empty). Requires finalize(); not thread safe
     * against concurrent forward() calls.
     */
    void quantize(Precision precision, const Tensor &calib);

    /**
     * Apply previously serialized quantization state: one LayerQuant
     * per layer, in layer order. For Int8 a layer with empty weight
     * scales is left at f32 (it was not quantized when saved).
     */
    void applyQuantization(Precision precision,
                           const std::vector<LayerQuant> &layerQuant);

    /** Multi-line structural description (one line per layer). */
    std::string describe() const;

  private:
    std::string name_;
    Shape inputShape_;
    Shape tailShape_;
    std::vector<LayerPtr> layers_;
    bool finalized_ = false;
    Precision precision_ = Precision::F32;
    std::atomic<bool> parallel_{true};
};

using NetworkPtr = std::shared_ptr<Network>;

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_NETWORK_HH
