#include "nn/zoo.hh"

#include "common/logging.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"

namespace djinn {
namespace nn {
namespace zoo {

namespace {

// AlexNet (Krizhevsky et al.), Caffe deploy structure. 227x227 RGB
// input, 1000 ImageNet classes, ~61M parameters.
const char *alexnet_def = R"(
name alexnet
input 3 227 227
layer conv1 conv out 96 kernel 11 stride 4
layer relu1 relu
layer norm1 lrn size 5
layer pool1 maxpool kernel 3 stride 2
layer conv2 conv out 256 kernel 5 pad 2 group 2
layer relu2 relu
layer norm2 lrn size 5
layer pool2 maxpool kernel 3 stride 2
layer conv3 conv out 384 kernel 3 pad 1
layer relu3 relu
layer conv4 conv out 384 kernel 3 pad 1 group 2
layer relu4 relu
layer conv5 conv out 256 kernel 3 pad 1 group 2
layer relu5 relu
layer pool5 maxpool kernel 3 stride 2
layer fc6 fc out 4096
layer relu6 relu
layer drop6 dropout
layer fc7 fc out 4096
layer relu7 relu
layer drop7 dropout
layer fc8 fc out 1000
layer prob softmax
)";

// MNIST digit CNN (LeCun et al. lineage), sized to Table 1's ~60K
// parameters. 28x28 grayscale input, 10 classes, 7 layers.
const char *mnist_def = R"(
name mnist
input 1 28 28
layer conv1 conv out 10 kernel 5
layer pool1 maxpool kernel 2 stride 2
layer conv2 conv out 20 kernel 5
layer pool2 maxpool kernel 2 stride 2
layer ip1 fc out 150
layer relu1 relu
layer ip2 fc out 10
)";

// DeepFace (Taigman et al.): conv front end plus three locally
// connected layers that hold most of the ~120M parameters, trained
// here against the 83 identities of PubFig83+LFW. 8 layers per
// Table 1.
const char *deepface_def = R"(
name deepface
input 3 152 152
layer c1 conv out 32 kernel 11
layer m2 maxpool kernel 3 stride 2
layer c3 conv out 16 kernel 9
layer l4 local out 16 kernel 9
layer l5 local out 16 kernel 7 stride 2
layer l6 local out 16 kernel 5
layer f7 fc out 4096
layer f8 fc out 83
)";

// Kaldi hybrid DNN acoustic model: 11-frame spliced 40-dim filterbank
// input (440), six 2048-wide sigmoid hidden layers, 4000 senone
// outputs. 13 layers, ~30M parameters per Table 1.
const char *kaldi_def = R"(
name kaldi_asr
input 440 1 1
layer fc1 fc out 2048
layer sig1 sigmoid
layer fc2 fc out 2048
layer sig2 sigmoid
layer fc3 fc out 2048
layer sig3 sigmoid
layer fc4 fc out 2048
layer sig4 sigmoid
layer fc5 fc out 2048
layer sig5 sigmoid
layer fc6 fc out 2048
layer sig6 sigmoid
layer fc7 fc out 4000
)";

// SENNA (Collobert et al.) window-approach tagger: 5-word window of
// 50-dim embeddings (250 inputs), one 600-wide HardTanh hidden
// layer, per-task tag outputs. 3 layers, ~180K parameters.
std::string
sennaDef(const char *name, int tags)
{
    return strprintf(R"(
name %s
input 250 1 1
layer fc1 fc out 600
layer htanh1 hardtanh
layer fc2 fc out %d
)", name, tags);
}

} // namespace

const char *
modelName(Model model)
{
    switch (model) {
      case Model::AlexNet: return "alexnet";
      case Model::Mnist: return "mnist";
      case Model::DeepFace: return "deepface";
      case Model::KaldiAsr: return "kaldi_asr";
      case Model::SennaPos: return "senna_pos";
      case Model::SennaChk: return "senna_chk";
      case Model::SennaNer: return "senna_ner";
    }
    return "unknown";
}

Model
modelFromName(const std::string &name)
{
    for (Model m : allModels()) {
        if (name == modelName(m))
            return m;
    }
    fatal("unknown zoo model '%s'", name.c_str());
}

std::string
netDef(Model model)
{
    switch (model) {
      case Model::AlexNet: return alexnet_def;
      case Model::Mnist: return mnist_def;
      case Model::DeepFace: return deepface_def;
      case Model::KaldiAsr: return kaldi_def;
      case Model::SennaPos: return sennaDef("senna_pos", 45);
      case Model::SennaChk: return sennaDef("senna_chk", 23);
      case Model::SennaNer: return sennaDef("senna_ner", 9);
    }
    fatal("unknown zoo model %d", static_cast<int>(model));
}

NetworkPtr
build(Model model, uint64_t seed)
{
    return build(model, Precision::F32, seed);
}

NetworkPtr
build(Model model, Precision precision, uint64_t seed)
{
    auto net = parseNetDefOrDie(netDef(model));
    initializeWeights(*net, seed);
    if (precision != Precision::F32)
        net->quantize(precision, calibrationBatch(*net));
    net->packWeights();
    return net;
}

Tensor
calibrationBatch(const Network &net, int64_t batch)
{
    Tensor t(net.inputShape().withBatch(batch));
    // FNV-1a of the name keys the stream; the LCG step matches the
    // committed determinism-test input generator so the calibration
    // distribution is the inference distribution.
    uint64_t state = 0xcbf29ce484222325ull;
    for (char c : net.name())
        state = (state ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
    float *d = t.data();
    for (int64_t i = 0; i < t.elems(); ++i) {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        d[i] = static_cast<float>((state >> 33) % 2000) / 1000.0f -
               1.0f;
    }
    return t;
}

std::vector<Model>
allModels()
{
    return {Model::AlexNet, Model::Mnist, Model::DeepFace,
            Model::KaldiAsr, Model::SennaPos, Model::SennaChk,
            Model::SennaNer};
}

} // namespace zoo
} // namespace nn
} // namespace djinn
