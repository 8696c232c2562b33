// Column embedding for alignment (Sec. 6.2).
//
// Two serializations per Sec. 6.2.3:
//  - Cell-level: embed each cell independently, average the cell embeddings.
//  - Column-level: concatenate the column's values into one text, keep the
//    512 most representative tokens by TF-IDF (the LM token limit), embed
//    the selected tokens at once.
#ifndef DUST_EMBED_COLUMN_EMBEDDER_H_
#define DUST_EMBED_COLUMN_EMBEDDER_H_

#include <memory>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "table/table.h"
#include "text/tfidf.h"

namespace dust::embed {

enum class ColumnSerialization { kCellLevel, kColumnLevel };

const char* ColumnSerializationName(ColumnSerialization serialization);

/// Embeds table columns with a given text encoder and serialization.
class ColumnEmbedder {
 public:
  /// `token_limit` is the LM input cap (512 in the paper) applied to the
  /// column-level serialization via TF-IDF top-token selection.
  ColumnEmbedder(std::shared_ptr<TextEmbedder> encoder,
                 ColumnSerialization serialization, size_t token_limit = 512);

  /// Cells per claim of EmbedTables' two pooled passes: 2,048 cells take
  /// about 0.25 ms to tokenize (0.11-0.14 us each) and longer to embed, 15
  /// round trips of an empty pooled ParallelFor (16 us at the median on 4
  /// vCPUs). A call over at most this many cells runs on the calling
  /// thread.
  static constexpr size_t kGrainCells = 2048;

  /// Embeds every column of every table; the TF-IDF corpus is the full set
  /// of columns passed here (a "document" = one column's token bag).
  /// result[t][j] is the embedding of table t's column j. Columns are
  /// tokenized, then embedded, on serve::Executor::Current() in claims of
  /// about kGrainCells cells; the TF-IDF fit between the two passes runs on
  /// the same executor, with only its count merge serial. Each token list
  /// and embedding is a pure function of its column and the fit, so the
  /// result is the same on every executor.
  std::vector<std::vector<la::Vec>> EmbedTables(
      const std::vector<const table::Table*>& tables) const;

  /// Embeds a single column given a prebuilt TF-IDF model (column-level) or
  /// directly (cell-level).
  la::Vec EmbedColumn(const table::Column& column,
                      const text::TfidfModel* tfidf) const;

  size_t dim() const { return encoder_->dim(); }
  std::string name() const;

 private:
  /// Column-level embedding of a column's ColumnTokens: the `token_limit`
  /// tokens with the highest TF-IDF weight (the first ones without a
  /// model), joined into one text.
  la::Vec EmbedColumnTokens(std::vector<std::string> tokens,
                            const text::TfidfModel* tfidf) const;

  std::shared_ptr<TextEmbedder> encoder_;
  ColumnSerialization serialization_;
  size_t token_limit_;
};

/// Tokens of a column (all cell word-tokens plus the header tokens).
std::vector<std::string> ColumnTokens(const table::Column& column);

}  // namespace dust::embed

#endif  // DUST_EMBED_COLUMN_EMBEDDER_H_
