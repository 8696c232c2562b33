// TF-IDF weighting and top-token selection.
//
// Sec. 6.2.3: language-model baselines have a 512-token input limit, so each
// column keeps only its 512 most representative tokens ranked by TF-IDF.
#ifndef DUST_TEXT_TFIDF_H_
#define DUST_TEXT_TFIDF_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace dust::text {

/// Corpus-level document-frequency statistics. A "document" is whatever unit
/// the caller chooses (for column alignment: one column's token bag).
class TfidfModel {
 public:
  /// Tokens per claim of the pooled pass that finds each document's
  /// distinct tokens: 0.14-0.44 ms at the 34-107 ns a token measured on
  /// Algorithm 1 column corpora, 9-27 round trips of an empty pooled
  /// ParallelFor (16 us at the median on 4 vCPUs). A corpus of at most
  /// this many tokens, such as an alg1_wide query's (at most 2,632), is
  /// read on the calling thread.
  static constexpr size_t kGrainTokens = 4096;

  /// Builds document frequencies from tokenized documents. Each document's
  /// distinct tokens are found on serve::Executor::Current() in claims of
  /// the documents of about kGrainTokens tokens; only the merge of the
  /// counts is serial. The counts are integers, so the model is the same on
  /// every executor.
  explicit TfidfModel(const std::vector<std::vector<std::string>>& documents);

  size_t num_documents() const { return num_documents_; }

  /// Smoothed inverse document frequency: ln((1+N)/(1+df)) + 1.
  float Idf(const std::string& token) const;

  /// TF-IDF weights for `tokens` (term frequency within this bag times IDF).
  std::unordered_map<std::string, float> Weights(
      const std::vector<std::string>& tokens) const;

  /// The `limit` tokens of `tokens` with the highest TF-IDF weight, ties
  /// broken lexicographically for determinism. Duplicates collapse.
  std::vector<std::string> TopTokens(const std::vector<std::string>& tokens,
                                     size_t limit) const;

 private:
  size_t num_documents_;
  std::unordered_map<std::string, size_t> doc_freq_;
};

}  // namespace dust::text

#endif  // DUST_TEXT_TFIDF_H_
