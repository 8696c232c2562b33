#include "nn/dust_model.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "text/hashing.h"

namespace dust::nn {

DustModel::DustModel(const DustModelConfig& config)
    : config_(config),
      feature_seed_(SplitMix64(config.seed ^
                               embed::FamilySeedConstant(config.family))),
      lin1_(config.feature_dim, config.hidden_dim, config.seed ^ 0x11ULL),
      lin2_(config.hidden_dim, config.embedding_dim, config.seed ^ 0x22ULL) {
  DUST_CHECK(config.feature_dim > 0 && config.hidden_dim > 0 &&
             config.embedding_dim > 0);
}

std::string DustModel::name() const {
  return std::string("DUST (") + embed::ModelFamilyName(config_.family) + ")";
}

text::SparseVector DustModel::Featurize(const std::string& serialized) const {
  std::vector<uint64_t> hashes;
  embed::AppendFeatureHashes(config_.family, serialized, feature_seed_,
                             &hashes);
  return text::HashesToSparse(std::move(hashes), config_.feature_dim);
}

la::Vec DustModel::EncodeSerialized(const std::string& serialized) const {
  text::SparseVector x = Featurize(serialized);
  la::Vec hidden = TanhForward(lin1_.ForwardSparse(x));
  return lin2_.Forward(hidden);
}

la::Vec DustModel::ForwardTrain(const std::string& serialized, Rng* rng,
                                ForwardCache* cache) {
  text::SparseVector x = Featurize(serialized);
  // Inverted dropout on the frozen features (Sec. 4: dropout right after
  // the frozen encoder, before the two linear layers).
  cache->dropped.indices.clear();
  cache->dropped.values.clear();
  float keep = 1.0f - config_.dropout_p;
  float scale = (keep > 0.0f) ? 1.0f / keep : 0.0f;
  for (size_t k = 0; k < x.indices.size(); ++k) {
    if (config_.dropout_p <= 0.0f || rng->NextDouble() < keep) {
      cache->dropped.indices.push_back(x.indices[k]);
      cache->dropped.values.push_back(x.values[k] * scale);
    }
  }
  cache->hidden_act = TanhForward(lin1_.ForwardSparse(cache->dropped));
  cache->output = lin2_.Forward(cache->hidden_act);
  return cache->output;
}

void DustModel::Backward(const ForwardCache& cache, const la::Vec& grad_output) {
  la::Vec grad_hidden = lin2_.Backward(cache.hidden_act, grad_output);
  la::Vec grad_pre = TanhBackward(cache.hidden_act, grad_hidden);
  lin1_.BackwardSparse(cache.dropped, grad_pre);
}

void DustModel::ZeroGrad() {
  lin1_.ZeroGrad();
  lin2_.ZeroGrad();
}

void DustModel::RegisterParams(Adam* optimizer) {
  optimizer->Register({lin1_.weights().data().data(),
                       lin1_.weight_grad().data().data(),
                       lin1_.weights().data().size()});
  optimizer->Register(
      {lin1_.bias().data(), lin1_.bias_grad().data(), lin1_.bias().size()});
  optimizer->Register({lin2_.weights().data().data(),
                       lin2_.weight_grad().data().data(),
                       lin2_.weights().data().size()});
  optimizer->Register(
      {lin2_.bias().data(), lin2_.bias_grad().data(), lin2_.bias().size()});
}

size_t DustModel::num_params() const {
  return lin1_.num_params() + lin2_.num_params();
}

std::vector<float> DustModel::SaveParams() const {
  std::vector<float> out;
  out.reserve(num_params());
  lin1_.AppendParams(&out);
  lin2_.AppendParams(&out);
  return out;
}

void DustModel::LoadParams(const std::vector<float>& params) {
  DUST_CHECK(params.size() == num_params());
  lin1_.ReadParams(params.data());
  lin2_.ReadParams(params.data() + lin1_.num_params());
}

namespace {
constexpr uint32_t kModelMagic = 0xD0570001;
}  // namespace

Status DustModel::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  uint32_t magic = kModelMagic;
  uint64_t dims[4] = {config_.feature_dim, config_.hidden_dim,
                      config_.embedding_dim,
                      static_cast<uint64_t>(config_.family)};
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  std::vector<float> params = SaveParams();
  uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(params.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
  return out.good() ? Status::Ok() : Status::IoError("write failed: " + path);
}

Status DustModel::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  uint32_t magic = 0;
  uint64_t dims[4] = {0, 0, 0, 0};
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  in.read(reinterpret_cast<char*>(dims), sizeof(dims));
  if (!in || magic != kModelMagic) {
    return Status::InvalidArgument("not a DUST model file: " + path);
  }
  if (dims[0] != config_.feature_dim || dims[1] != config_.hidden_dim ||
      dims[2] != config_.embedding_dim ||
      dims[3] != static_cast<uint64_t>(config_.family)) {
    return Status::InvalidArgument("model shape mismatch: " + path);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::IoError("truncated model file: " + path);
  // Checked before allocating: a corrupt count must neither size a vector
  // nor reach LoadParams.
  if (count != num_params()) {
    return Status::IoError("corrupt parameter count " + std::to_string(count) +
                           " (model has " + std::to_string(num_params()) +
                           "): " + path);
  }
  std::vector<float> params(count);
  in.read(reinterpret_cast<char*>(params.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) return Status::IoError("truncated model file: " + path);
  // Bytes past the parameters mean the file was concatenated with something
  // or partly overwritten by a shorter one.
  const std::streamoff end_of_params = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff extra = in.tellg() - end_of_params;
  if (extra != 0) {
    return Status::IoError(std::to_string(extra) +
                           " extra bytes after the end of " + path);
  }
  for (float p : params) {
    if (!std::isfinite(p)) {
      return Status::IoError("non-finite parameter in model file: " + path);
    }
  }
  LoadParams(params);
  return Status::Ok();
}

}  // namespace dust::nn
