/**
 * @file
 * Tonic queries for the end-to-end benchmark: seeded input
 * generation, a per-thread bundle of Tonic apps over one DjiNN
 * connection, and the correctness gate that recomputes a query's
 * answer with a direct nn::Network::forward.
 */

#ifndef PERFBENCH_QUERIES_HH
#define PERFBENCH_QUERIES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/djinn_client.hh"
#include "core/model_registry.hh"
#include "tonic/apps.hh"
#include "tonic/image.hh"

namespace perfbench {

using namespace djinn;

/** The Tonic applications the benchmark drives. */
enum class App { Imc, Face, Asr };

/** Every App, in declaration order. */
inline constexpr App kAllApps[] = {App::Imc, App::Face, App::Asr};

/** Lower-case app name ("imc", "face", "asr"). */
const char *appName(App app);

/** Parse an app name; false on an unknown name. */
bool parseApp(const std::string &name, App &app);

/** The zoo model an app's queries reach. */
nn::zoo::Model modelFor(App app);

/** One application query and its input. */
struct Query {
    App app = App::Imc;

    /** The IMC / FACE photo. */
    tonic::Image image;

    /** ASR waveform, 16 kHz mono. */
    std::vector<float> samples;

    /** Identity of the input content; equal ids mean a repeated
     * input (the share of repeats is reported per run). */
    uint64_t inputId = 0;
};

/** Distinct photos per vision app; queries draw from the pool. */
inline constexpr int kImagePool = 16;

/** ASR utterance lengths in frames, ascending, up to the paper's
 * 548; queries cycle through them. */
inline constexpr int64_t kUtteranceFrames[] = {48, 173, 298, 423, 548};

/** Seeded input factory. Photos come from a pool built once;
 * utterances are fresh per query. */
class QueryFactory
{
  public:
    /** Builds the photo pools when @p apps include IMC or FACE. */
    QueryFactory(const std::vector<App> &apps, uint64_t seed);

    /**
     * Next query of @p app, drawn from @p rng. @p index is the
     * query's position in its client's stream; ASR queries cycle
     * through the length strata by it, so every run sees the same
     * length mix whatever the seed.
     */
    Query make(App app, Rng &rng, uint64_t index) const;

  private:
    std::vector<tonic::Image> imcPool_;
    std::vector<tonic::Image> facePool_;
};

/** Bytes of tensors on the wire for @p query: the request's input
 * plus the reply's scores. */
int64_t wireBytes(const core::ModelRegistry &registry,
                  const Query &query);

/**
 * One DjiNN connection with every Tonic app bound to it. Not
 * thread-safe; one per load thread.
 */
class AppClient
{
  public:
    AppClient();

    AppClient(const AppClient &) = delete;
    AppClient &operator=(const AppClient &) = delete;

    Status connect(uint16_t port);

    /** Run @p query through its app's public entry point. */
    Result<tonic::AppOutput> run(const Query &query);

  private:
    core::DjinnClient client_;
    tonic::ImcApp imc_;
    tonic::FaceApp face_;
    tonic::AsrApp asr_;
};

/** Outcome of checking one reply against the direct forward. */
struct Check {
    bool ok = true;
    std::string why;
};

/**
 * The correctness gate for one query. Recompute its answer with a
 * direct, unbatched nn::Network::forward of the same input and the
 * app's own post-processing: the reply's labels must be equal, and
 * IMC's printed top-1 probability within kProbTolerance. Then send
 * the query's service input again through a raw
 * DjinnClient::infer on @p client and require every score within
 * kScoreTolerance of the direct forward. (The app's reply carries
 * labels, not scores, so the score check runs on the re-sent
 * request.)
 */
Check checkQuery(const core::ModelRegistry &registry, const Query &query,
                 const tonic::AppOutput &output,
                 core::DjinnClient &client);

/** |served - direct| <= tol * (1 + |direct|) on every score. */
inline constexpr double kScoreTolerance = 1e-4;

/** IMC prints p to three decimals. */
inline constexpr double kProbTolerance = 1e-3;

} // namespace perfbench

#endif // PERFBENCH_QUERIES_HH
