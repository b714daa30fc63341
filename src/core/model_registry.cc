#include "core/model_registry.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "nn/net_def.hh"
#include "nn/serialize.hh"

namespace djinn {
namespace core {

Status
ModelRegistry::add(nn::NetworkPtr network)
{
    if (!network)
        return Status::invalidArgument("null network");
    if (!network->finalized())
        return Status::invalidArgument("network '" + network->name() +
                                       "' is not finalized");
    // A registered model's weights are final: pack them for serving
    // before the first query can reach it.
    network->packWeights();
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = models_.emplace(network->name(),
                                          std::move(network));
    if (!inserted)
        return Status::invalidArgument("model '" + it->first +
                                       "' already registered");
    return Status::ok();
}

Status
ModelRegistry::addZooModel(nn::zoo::Model model, uint64_t seed,
                           nn::Precision precision)
{
    return add(nn::zoo::build(model, precision, seed));
}

Status
ModelRegistry::loadFromFiles(const std::string &netdef_path,
                             const std::string &weights_path)
{
    std::ifstream in(netdef_path);
    if (!in)
        return Status::ioError("cannot open netdef '" + netdef_path +
                               "'");
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = nn::parseNetDef(text.str());
    if (!parsed.isOk())
        return parsed.status();
    nn::NetworkPtr net = parsed.takeValue();
    if (!weights_path.empty()) {
        Status s = nn::loadWeights(*net, weights_path);
        if (!s.isOk())
            return s;
    }
    return add(std::move(net));
}

Status
ModelRegistry::addInstance(const std::string &instance,
                           const std::string &base)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto base_it = models_.find(base);
    if (base_it == models_.end())
        return Status::notFound("unknown model '" + base + "'");
    auto [it, inserted] = models_.emplace(instance,
                                          base_it->second);
    if (!inserted)
        return Status::invalidArgument("model '" + instance +
                                       "' already registered");
    return Status::ok();
}

Status
ModelRegistry::unload(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end())
        return Status::notFound("unknown model '" + name + "'");
    models_.erase(it);
    return Status::ok();
}

size_t
ModelRegistry::instanceCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end())
        return 0;
    size_t count = 0;
    for (const auto &[other, net] : models_) {
        if (net.get() == it->second.get())
            ++count;
    }
    return count;
}

std::shared_ptr<const nn::Network>
ModelRegistry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string>
ModelRegistry::modelNames() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto &[name, net] : models_)
        names.push_back(name);
    return names;
}

size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return models_.size();
}

uint64_t
ModelRegistry::totalWeightBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    std::set<const nn::Network *> counted;
    for (const auto &[name, net] : models_) {
        if (counted.insert(net.get()).second)
            total += net->weightBytes();
    }
    return total;
}

} // namespace core
} // namespace djinn
