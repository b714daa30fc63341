#include "nn/serialize.hh"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/logging.hh"

namespace djinn {
namespace nn {

namespace {

constexpr char magic[4] = {'D', 'J', 'W', '1'};

/**
 * Optional quantization trailer appended after the layer section
 * when the network was lowered (DESIGN.md §14): magic "QNT1", u32
 * precision, then per layer the activation mapping (f32 scale, i32
 * zero point, i32 qmin, i32 qmax) and u64 weight-scale count plus
 * f32 scales. int8 weight *codes* are not stored — requantizing the
 * f32 weights with these scales is deterministic, so the scales
 * alone reproduce the exact lowered model. Files without the
 * trailer load as f32 (the seed format).
 */
constexpr char quantMagic[4] = {'Q', 'N', 'T', '1'};

void
writeU32(std::ostream &os, uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU64(std::ostream &os, uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

bool
readU32(std::istream &is, uint32_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return static_cast<bool>(is);
}

bool
readU64(std::istream &is, uint64_t &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    return static_cast<bool>(is);
}

} // namespace

Status
saveWeights(const Network &net, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return Status::ioError("cannot open '" + path +
                               "' for writing");
    os.write(magic, sizeof(magic));
    writeU32(os, static_cast<uint32_t>(net.layerCount()));
    for (size_t i = 0; i < net.layerCount(); ++i) {
        const Layer &layer = net.layer(i);
        const std::string &name = layer.name();
        writeU32(os, static_cast<uint32_t>(name.size()));
        os.write(name.data(),
                 static_cast<std::streamsize>(name.size()));
        size_t count = layer.params().size();
        writeU32(os, static_cast<uint32_t>(count));
        for (size_t p = 0; p < count; ++p) {
            // Packed weights are written in their row-major layout.
            Tensor t = layer.paramValues(p);
            writeU64(os, static_cast<uint64_t>(t.elems()));
            os.write(reinterpret_cast<const char *>(t.data()),
                     static_cast<std::streamsize>(
                         t.elems() * sizeof(float)));
        }
    }
    if (net.precision() != Precision::F32) {
        os.write(quantMagic, sizeof(quantMagic));
        writeU32(os, static_cast<uint32_t>(net.precision()));
        for (size_t i = 0; i < net.layerCount(); ++i) {
            const LayerQuant &q = net.layer(i).quant();
            os.write(reinterpret_cast<const char *>(&q.act.scale),
                     sizeof(float));
            writeU32(os, static_cast<uint32_t>(q.act.zeroPoint));
            writeU32(os, static_cast<uint32_t>(q.act.qmin));
            writeU32(os, static_cast<uint32_t>(q.act.qmax));
            writeU64(os, q.weightScales.size());
            os.write(reinterpret_cast<const char *>(
                         q.weightScales.data()),
                     static_cast<std::streamsize>(
                         q.weightScales.size() * sizeof(float)));
        }
    }
    if (!os)
        return Status::ioError("write failed for '" + path + "'");
    return Status::ok();
}

Status
loadWeights(Network &net, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return Status::ioError("cannot open '" + path +
                               "' for reading");
    char got_magic[4];
    is.read(got_magic, sizeof(got_magic));
    if (!is || std::memcmp(got_magic, magic, sizeof(magic)) != 0)
        return Status::protocolError("'" + path +
                                     "' is not a DJW1 weight file");
    uint32_t layer_count;
    if (!readU32(is, layer_count))
        return Status::protocolError("truncated weight file");
    if (layer_count != net.layerCount()) {
        return Status::invalidArgument(strprintf(
            "weight file has %u layers, network '%s' has %zu",
            layer_count, net.name().c_str(), net.layerCount()));
    }
    for (size_t i = 0; i < net.layerCount(); ++i) {
        Layer &layer = net.layer(i);
        uint32_t name_len;
        if (!readU32(is, name_len) || name_len > 4096)
            return Status::protocolError("truncated weight file");
        std::string name(name_len, '\0');
        is.read(name.data(), name_len);
        if (!is)
            return Status::protocolError("truncated weight file");
        if (name != layer.name()) {
            return Status::invalidArgument(strprintf(
                "layer %zu name mismatch: file '%s', network '%s'",
                i, name.c_str(), layer.name().c_str()));
        }
        uint32_t tensor_count;
        if (!readU32(is, tensor_count))
            return Status::protocolError("truncated weight file");
        auto params = layer.params();
        if (tensor_count != params.size()) {
            return Status::invalidArgument(strprintf(
                "layer '%s': file has %u param tensors, network has "
                "%zu", name.c_str(), tensor_count, params.size()));
        }
        for (Tensor *t : params) {
            uint64_t elems;
            if (!readU64(is, elems))
                return Status::protocolError("truncated weight file");
            if (elems != static_cast<uint64_t>(t->elems())) {
                return Status::invalidArgument(strprintf(
                    "layer '%s': tensor element count mismatch "
                    "(file %llu, network %lld)", name.c_str(),
                    static_cast<unsigned long long>(elems),
                    static_cast<long long>(t->elems())));
            }
            is.read(reinterpret_cast<char *>(t->data()),
                    static_cast<std::streamsize>(
                        elems * sizeof(float)));
            if (!is)
                return Status::protocolError("truncated weight file");
        }
    }

    // Optional quantization trailer; plain EOF means an f32 file.
    char quant_tag[4];
    is.read(quant_tag, sizeof(quant_tag));
    if (!is)
        return Status::ok();
    if (std::memcmp(quant_tag, quantMagic, sizeof(quantMagic)) != 0)
        return Status::protocolError(
            "'" + path + "' has trailing bytes that are not a QNT1 "
            "quantization section");
    uint32_t prec_raw;
    if (!readU32(is, prec_raw) ||
        prec_raw > static_cast<uint32_t>(Precision::Int8))
        return Status::protocolError("bad precision in QNT1 section");
    Precision precision = static_cast<Precision>(prec_raw);
    std::vector<LayerQuant> layer_quant(net.layerCount());
    for (size_t i = 0; i < net.layerCount(); ++i) {
        LayerQuant &q = layer_quant[i];
        uint32_t zp, qmin, qmax;
        is.read(reinterpret_cast<char *>(&q.act.scale),
                sizeof(float));
        if (!is || !readU32(is, zp) || !readU32(is, qmin) ||
            !readU32(is, qmax))
            return Status::protocolError("truncated QNT1 section");
        q.act.zeroPoint = static_cast<int32_t>(zp);
        q.act.qmin = static_cast<int32_t>(qmin);
        q.act.qmax = static_cast<int32_t>(qmax);
        uint64_t nscales;
        if (!readU64(is, nscales) || nscales > (1ull << 32))
            return Status::protocolError("truncated QNT1 section");
        q.weightScales.resize(static_cast<size_t>(nscales));
        is.read(reinterpret_cast<char *>(q.weightScales.data()),
                static_cast<std::streamsize>(nscales *
                                             sizeof(float)));
        if (!is)
            return Status::protocolError("truncated QNT1 section");
    }
    net.applyQuantization(precision, layer_quant);
    return Status::ok();
}

} // namespace nn
} // namespace djinn
