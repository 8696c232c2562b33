#include "embed/column_embedder.h"

#include <algorithm>
#include <iterator>

#include "serve/executor.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "util/status.h"
#include "util/string_util.h"

namespace dust::embed {

const char* ColumnSerializationName(ColumnSerialization serialization) {
  switch (serialization) {
    case ColumnSerialization::kCellLevel:
      return "Cell-level";
    case ColumnSerialization::kColumnLevel:
      return "Column-level";
  }
  return "?";
}

ColumnEmbedder::ColumnEmbedder(std::shared_ptr<TextEmbedder> encoder,
                               ColumnSerialization serialization,
                               size_t token_limit)
    : encoder_(std::move(encoder)),
      serialization_(serialization),
      token_limit_(token_limit) {
  DUST_CHECK(encoder_ != nullptr);
}

std::string ColumnEmbedder::name() const {
  return std::string(ColumnSerializationName(serialization_)) + " " +
         encoder_->name();
}

std::vector<std::string> ColumnTokens(const table::Column& column) {
  std::vector<std::string> tokens = text::WordTokens(column.name);
  for (const table::Value& v : column.values) {
    if (v.is_null()) continue;
    for (auto& t : text::WordTokens(v.text())) tokens.push_back(std::move(t));
  }
  return tokens;
}

la::Vec ColumnEmbedder::EmbedColumn(const table::Column& column,
                                    const text::TfidfModel* tfidf) const {
  if (serialization_ == ColumnSerialization::kCellLevel) {
    // Embed each cell independently; average the non-null cell embeddings.
    la::Vec sum(encoder_->dim(), 0.0f);
    size_t count = 0;
    for (const table::Value& v : column.values) {
      if (v.is_null()) continue;
      la::AddInPlace(&sum, encoder_->Embed(v.text()));
      ++count;
    }
    if (count > 0) la::ScaleInPlace(&sum, 1.0f / static_cast<float>(count));
    la::NormalizeInPlace(&sum);
    return sum;
  }
  return EmbedColumnTokens(ColumnTokens(column), tfidf);
}

la::Vec ColumnEmbedder::EmbedColumnTokens(std::vector<std::string> tokens,
                                          const text::TfidfModel* tfidf) const {
  // Column-level: a single text from the TF-IDF top tokens (LM token cap).
  if (tokens.size() > token_limit_) {
    if (tfidf != nullptr) {
      tokens = tfidf->TopTokens(tokens, token_limit_);
    } else {
      tokens.resize(token_limit_);
    }
  }
  return encoder_->Embed(Join(tokens, " "));
}

std::vector<std::vector<la::Vec>> ColumnEmbedder::EmbedTables(
    const std::vector<const table::Table*>& tables) const {
  std::vector<const table::Column*> columns;
  size_t cells = 0;
  for (const table::Table* t : tables) {
    for (const table::Column& c : t->columns()) {
      columns.push_back(&c);
      cells += c.values.size();
    }
  }
  // A column's cost grows with its cells, so a claim is the columns of
  // about kGrainCells cells at this call's mean column height; a call of at
  // most kGrainCells cells is one claim, on the caller.
  const size_t grain = std::max<size_t>(
      1, kGrainCells * columns.size() / std::max<size_t>(cells, 1));
  serve::Executor& pool = serve::Executor::Current();
  // Corpus for TF-IDF: one document per column across all tables. Each
  // column is tokenized once; its document then feeds its own embedding.
  std::vector<std::vector<std::string>> docs;
  std::unique_ptr<text::TfidfModel> tfidf;
  if (serialization_ == ColumnSerialization::kColumnLevel) {
    docs.resize(columns.size());
    pool.ParallelFor(columns.size(), grain, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) docs[c] = ColumnTokens(*columns[c]);
    });
    tfidf = std::make_unique<text::TfidfModel>(docs);
  }
  std::vector<la::Vec> embedded(columns.size());
  pool.ParallelFor(columns.size(), grain, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      embedded[c] = tfidf == nullptr
                        ? EmbedColumn(*columns[c], nullptr)
                        : EmbedColumnTokens(std::move(docs[c]), tfidf.get());
    }
  });
  std::vector<std::vector<la::Vec>> out;
  out.reserve(tables.size());
  auto next = embedded.begin();
  for (const table::Table* t : tables) {
    const auto end = next + static_cast<std::ptrdiff_t>(t->num_columns());
    out.emplace_back(std::make_move_iterator(next),
                     std::make_move_iterator(end));
    next = end;
  }
  return out;
}

}  // namespace dust::embed
