/**
 * @file
 * The model zoo: netdef definitions of the five neural network
 * architectures behind the seven Tonic applications (paper Table 1).
 *
 *   AlexNet   (IMC)        CNN, 60M params
 *   Mnist     (DIG)        CNN, ~60K params
 *   DeepFace  (FACE)       CNN + locally connected, ~120M params
 *   KaldiAsr  (ASR)        DNN, 30M params
 *   SennaPos / SennaChk / SennaNer (POS/CHK/NER) DNN, ~180K params
 *
 * Weights are deterministic pseudo-random (see nn/init.hh); the
 * paper's experiments measure throughput, not accuracy.
 */

#ifndef DJINN_NN_ZOO_HH
#define DJINN_NN_ZOO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hh"

namespace djinn {
namespace nn {
namespace zoo {

/** The networks the zoo can build. */
enum class Model {
    AlexNet,
    Mnist,
    DeepFace,
    KaldiAsr,
    SennaPos,
    SennaChk,
    SennaNer,
};

/** Canonical lower-case name ("alexnet", "senna_pos", ...). */
const char *modelName(Model model);

/** Parse a model name; fatal() on unknown. */
Model modelFromName(const std::string &name);

/** The netdef source text for a model. */
std::string netDef(Model model);

/**
 * Build a model: parse its netdef, initialize weights
 * deterministically from @p seed, and pack them for serving
 * (Network::packWeights).
 */
NetworkPtr build(Model model, uint64_t seed = 42);

/**
 * Build a model and lower it to @p precision, then pack the
 * weights. Int8 activation mappings are calibrated on
 * calibrationBatch(); f32 is a plain build.
 */
NetworkPtr build(Model model, Precision precision,
                 uint64_t seed = 42);

/**
 * The committed calibration set for @p net: a small deterministic
 * batch of inputs drawn from an LCG stream keyed by the network's
 * name, so every build of a model calibrates on identical bytes.
 */
Tensor calibrationBatch(const Network &net, int64_t batch = 4);

/** All models, in Table-1 order. */
std::vector<Model> allModels();

} // namespace zoo
} // namespace nn
} // namespace djinn

#endif // DJINN_NN_ZOO_HH
