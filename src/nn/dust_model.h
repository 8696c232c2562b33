// The DUST fine-tuned tuple embedding model (Sec. 4, Fig. 3 bottom-right).
//
// Architecture: frozen feature extractor (family featurization hashed into
// a sparse feature space — the stand-in for the frozen transformer, see
// DESIGN.md §1) → dropout → linear → linear. The final linear output is the
// fixed-dimension tuple embedding E(t). Trained with the cosine embedding
// loss of Sec. 4 on unionability-labelled tuple pairs.
#ifndef DUST_NN_DUST_MODEL_H_
#define DUST_NN_DUST_MODEL_H_

#include <memory>
#include <string>

#include "embed/hashed_encoders.h"
#include "embed/tuple_encoder.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/status.h"

namespace dust::nn {

struct DustModelConfig {
  /// Frozen featurization family: kBert -> "DUST (BERT)",
  /// kRoberta -> "DUST (RoBERTa)".
  embed::ModelFamily family = embed::ModelFamily::kRoberta;
  /// Hashed sparse feature space of the frozen extractor.
  size_t feature_dim = 4096;
  /// Width of the first (fine-tuning) linear layer.
  size_t hidden_dim = 96;
  /// Output embedding dimension (768 in the paper; 64 by default here —
  /// a throughput knob, see DESIGN.md §1).
  size_t embedding_dim = 64;
  float dropout_p = 0.1f;
  uint64_t seed = 7;
};

/// Trainable tuple encoder. Implements embed::TupleEncoder for inference.
class DustModel : public embed::TupleEncoder {
 public:
  explicit DustModel(const DustModelConfig& config);

  // --- Inference (TupleEncoder) ---
  /// Const and free of shared scratch: safe to call concurrently.
  la::Vec EncodeSerialized(const std::string& serialized) const override;
  size_t dim() const override { return config_.embedding_dim; }
  std::string name() const override;

  // --- Training ---
  /// Per-branch forward cache for backprop.
  struct ForwardCache {
    text::SparseVector dropped;  // features after (inverted) dropout
    la::Vec hidden_act;          // tanh output of the first linear layer
    la::Vec output;              // final embedding
  };

  /// Training-mode forward (samples a dropout mask from `rng`).
  la::Vec ForwardTrain(const std::string& serialized, Rng* rng,
                       ForwardCache* cache);

  /// Accumulates parameter gradients for one branch.
  void Backward(const ForwardCache& cache, const la::Vec& grad_output);

  void ZeroGrad();

  /// Registers all trainable parameters with `optimizer`.
  void RegisterParams(Adam* optimizer);

  /// Snapshot / restore of all parameters (early-stopping best model), in
  /// file order: each layer's W as out_dim x in_dim, then its bias.
  /// LoadParams requires exactly num_params() values.
  std::vector<float> SaveParams() const;
  void LoadParams(const std::vector<float>& params);
  size_t num_params() const;

  /// Binary model (de)serialization. A file with the wrong parameter
  /// count, a truncated payload, bytes after the parameters or a NaN or
  /// infinite parameter fails with an IoError naming the file; a failed
  /// load leaves the model unchanged.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

  const DustModelConfig& config() const { return config_; }

  /// The frozen sparse featurization of a serialized tuple.
  text::SparseVector Featurize(const std::string& serialized) const;

 private:
  DustModelConfig config_;
  uint64_t feature_seed_;
  Linear lin1_;
  Linear lin2_;
};

}  // namespace dust::nn

#endif  // DUST_NN_DUST_MODEL_H_
