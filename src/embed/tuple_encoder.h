// Tuple encoding interface (Sec. 4). A TupleEncoder maps a serialized tuple
// ("[CLS] c1 v1 [SEP] ...") to its embedding E(t). Implementations:
//  - PretrainedTupleEncoder: a frozen text encoder applied to Ser(t)
//    (the BERT/RoBERTa/sBERT baselines of Sec. 6.3).
//  - nn::DustModel (in src/nn): the fine-tuned model.
#ifndef DUST_EMBED_TUPLE_ENCODER_H_
#define DUST_EMBED_TUPLE_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "table/serialize.h"
#include "table/table.h"

namespace dust::embed {

/// Maps serialized tuples to embeddings.
class TupleEncoder {
 public:
  virtual ~TupleEncoder() = default;

  /// Embedding of one serialized tuple. Implementations must be safe to
  /// call concurrently from many threads on one encoder:
  /// core::DustPipeline::Run encodes its tuples in parallel on an executor,
  /// and search::TupleSearch::SearchTuplesBatch encodes batch members in
  /// parallel.
  virtual la::Vec EncodeSerialized(const std::string& serialized) const = 0;

  virtual size_t dim() const = 0;
  virtual std::string name() const = 0;

  /// Encodes every row of `table` (serialized with its own headers).
  std::vector<la::Vec> EncodeTableRows(const table::Table& table) const;
};

/// Frozen pre-trained encoder applied directly to the serialization.
class PretrainedTupleEncoder : public TupleEncoder {
 public:
  explicit PretrainedTupleEncoder(std::shared_ptr<TextEmbedder> encoder);

  la::Vec EncodeSerialized(const std::string& serialized) const override;
  size_t dim() const override;
  std::string name() const override;

 private:
  std::shared_ptr<TextEmbedder> encoder_;
};

}  // namespace dust::embed

#endif  // DUST_EMBED_TUPLE_ENCODER_H_
