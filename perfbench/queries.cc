#include "queries.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "tonic/audio.hh"
#include "tonic/labels.hh"
#include "tonic/viterbi.hh"

namespace perfbench {

namespace {

struct AppInfo {
    App app;
    const char *name;
    const char *model;
};

constexpr AppInfo kApps[] = {
    {App::Imc, "imc", "alexnet"},
    {App::Face, "face", "deepface"},
    {App::Asr, "asr", "kaldi_asr"},
};

const AppInfo &
infoOf(App app)
{
    return kApps[static_cast<int>(app)];
}

/** One service request: the model and its stacked input rows. */
struct ServiceInput {
    std::string model;
    int64_t rows = 0;
    std::vector<float> data;
};

std::vector<float>
flatten(const nn::Tensor &t)
{
    return std::vector<float>(t.data(), t.data() + t.elems());
}

ServiceInput
photoInput(const tonic::Image &image, const char *model, int64_t side,
           float mean)
{
    tonic::Image scaled = tonic::resize(image, side, side);
    return {model, 1, flatten(tonic::toTensor(scaled, mean))};
}

/** The request the app builds from @p query. */
ServiceInput
serviceInput(const Query &query)
{
    switch (query.app) {
      case App::Imc:
        return photoInput(query.image, "alexnet", 227, 118.0f);
      case App::Face:
        return photoInput(query.image, "deepface", 152, 128.0f);
      case App::Asr: {
        tonic::FeatureConfig config;
        nn::Tensor spliced = tonic::spliceFrames(
            tonic::filterbankFeatures(query.samples, config),
            config.spliceContext);
        return {"kaldi_asr", spliced.shape().n(), flatten(spliced)};
      }
    }
    return {};
}

/** Direct, unbatched forward of one service request. */
std::vector<float>
directForward(const core::ModelRegistry &registry,
              const ServiceInput &in)
{
    auto net = registry.find(in.model);
    nn::Tensor input(net->inputShape().withBatch(in.rows));
    std::memcpy(input.data(), in.data.data(),
                in.data.size() * sizeof(float));
    return flatten(net->forward(input));
}

/** ASR post-processing: fold senones to phones, Viterbi, collapse. */
std::vector<int>
phonePath(const std::vector<float> &senones, int64_t frames)
{
    int64_t phones = static_cast<int64_t>(tonic::phoneNames().size());
    int64_t senone_count =
        static_cast<int64_t>(senones.size()) / std::max<int64_t>(frames, 1);
    nn::Tensor scores(nn::Shape(frames, phones), -1e30f);
    for (int64_t f = 0; f < frames; ++f) {
        const float *row = senones.data() + f * senone_count;
        float *dst = scores.sample(f);
        for (int64_t s = 0; s < senone_count; ++s)
            dst[s % phones] = std::max(dst[s % phones], row[s]);
    }
    return tonic::collapseRuns(tonic::viterbiDecode(
        scores, tonic::selfLoopTransitions(phones, 2.0f)));
}

/** Floats per input row and per output row of @p model. */
std::pair<int64_t, int64_t>
rowWidths(const core::ModelRegistry &registry, const std::string &model)
{
    auto net = registry.find(model);
    return {net->inputShape().sampleElems(),
            net->outputShape().sampleElems()};
}

} // namespace

const char *
appName(App app)
{
    return infoOf(app).name;
}

bool
parseApp(const std::string &name, App &app)
{
    for (const AppInfo &info : kApps) {
        if (name == info.name) {
            app = info.app;
            return true;
        }
    }
    return false;
}

nn::zoo::Model
modelFor(App app)
{
    return nn::zoo::modelFromName(infoOf(app).model);
}

int64_t
wireBytes(const core::ModelRegistry &registry, const Query &query)
{
    int64_t rows = 1;
    if (query.app == App::Asr)
        rows = tonic::frameCount(static_cast<int64_t>(query.samples.size()),
                                 tonic::FeatureConfig{});
    auto [in, out] = rowWidths(registry, infoOf(query.app).model);
    return rows * (in + out) * static_cast<int64_t>(sizeof(float));
}

namespace {

/** Waveform length, in samples, that yields @p frames frames. */
int64_t
samplesForFrames(int64_t frames)
{
    tonic::FeatureConfig config;
    int64_t frame_len =
        static_cast<int64_t>(config.frameLength * config.sampleRate);
    int64_t shift =
        static_cast<int64_t>(config.frameShift * config.sampleRate);
    return frame_len + (frames - 1) * shift;
}

} // namespace

QueryFactory::QueryFactory(const std::vector<App> &apps, uint64_t seed)
{
    bool photos = std::any_of(apps.begin(), apps.end(), [](App app) {
        return app == App::Imc || app == App::Face;
    });
    Rng rng(mix64(seed ^ 0x70686f746fULL));
    for (int i = 0; photos && i < kImagePool; ++i) {
        imcPool_.push_back(tonic::synthesizePhoto(256, 256, 3, rng));
        facePool_.push_back(tonic::synthesizePhoto(152, 152, 3, rng));
    }
}

Query
QueryFactory::make(App app, Rng &rng, uint64_t index) const
{
    Query q;
    q.app = app;
    q.inputId = rng.next();
    switch (app) {
      case App::Imc:
      case App::Face: {
        int64_t pick = rng.uniformInt(0, kImagePool - 1);
        q.inputId = static_cast<uint64_t>(pick) * 2 +
                    (app == App::Face ? 1 : 0);
        q.image = app == App::Imc ? imcPool_[pick] : facePool_[pick];
        break;
      }
      case App::Asr: {
        int64_t frames =
            kUtteranceFrames[index % std::size(kUtteranceFrames)];
        int64_t n = samplesForFrames(frames);
        q.samples = tonic::synthesizeUtterance(
            static_cast<double>(n) / 16000.0 + 1e-9, rng);
        q.samples.resize(static_cast<size_t>(n));
        break;
      }
    }
    return q;
}

AppClient::AppClient() : imc_(client_), face_(client_), asr_(client_) {}

Status
AppClient::connect(uint16_t port)
{
    return client_.connect("127.0.0.1", port);
}

Result<tonic::AppOutput>
AppClient::run(const Query &query)
{
    Result<tonic::AppOutput> out = Status::internal("unreachable");
    switch (query.app) {
      case App::Imc: out = imc_.classify(query.image); break;
      case App::Face: out = face_.identify(query.image); break;
      case App::Asr: out = asr_.transcribe(query.samples); break;
    }
    return out;
}

Check
checkQuery(const core::ModelRegistry &registry, const Query &query,
           const tonic::AppOutput &output, core::DjinnClient &client)
{
    auto wrong = [&](const std::string &why) {
        return Check{false, std::string(appName(query.app)) + ": " + why};
    };
    ServiceInput in = serviceInput(query);
    std::vector<float> scores = directForward(registry, in);

    std::vector<int> expected;
    if (query.app == App::Asr)
        expected = phonePath(scores, in.rows);
    else
        expected.push_back(static_cast<int>(
            std::max_element(scores.begin(), scores.end()) - scores.begin()));
    if (expected != output.labels)
        return wrong("labels differ from the direct forward");
    if (query.app == App::Imc) {
        // The reply text ends "(p=0.123)".
        double p = -1.0;
        size_t at = output.text.rfind("(p=");
        if (at != std::string::npos)
            std::sscanf(output.text.c_str() + at, "(p=%lf)", &p);
        double want = scores[static_cast<size_t>(expected[0])];
        if (std::fabs(p - want) > kProbTolerance) {
            return wrong("top-1 probability " + std::to_string(p) +
                         ", direct " + std::to_string(want));
        }
    }
    auto got = client.infer(in.model, in.rows, in.data);
    if (!got.isOk())
        return wrong("raw infer failed: " + got.status().toString());
    if (got.value().size() != scores.size())
        return wrong("score count differs from the direct forward");
    for (size_t i = 0; i < scores.size(); ++i) {
        double tol = kScoreTolerance * (1.0 + std::fabs(scores[i]));
        if (!(std::fabs(got.value()[i] - scores[i]) <= tol)) {
            return wrong("score " + std::to_string(i) + " is " +
                         std::to_string(got.value()[i]) + ", direct " +
                         std::to_string(scores[i]));
        }
    }
    return {};
}

} // namespace perfbench
