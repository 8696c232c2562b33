#include "text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>

#include "serve/executor.h"

namespace dust::text {

TfidfModel::TfidfModel(const std::vector<std::vector<std::string>>& documents)
    : num_documents_(documents.size()) {
  size_t tokens = 0;
  for (const auto& doc : documents) tokens += doc.size();
  // A claim is the documents of about kGrainTokens tokens at this corpus's
  // mean document length; a corpus of at most kGrainTokens tokens is one
  // claim, on the caller.
  const size_t grain = std::max<size_t>(
      1, kGrainTokens * documents.size() / std::max<size_t>(tokens, 1));
  // distinct[i] points at the first occurrence of each distinct token of
  // document i.
  std::vector<std::vector<const std::string*>> distinct(documents.size());
  serve::Executor& pool = serve::Executor::Current();
  pool.ParallelFor(documents.size(), grain, [&](size_t begin, size_t end) {
    std::unordered_set<std::string_view> seen;
    for (size_t i = begin; i < end; ++i) {
      seen.clear();
      for (const std::string& token : documents[i]) {
        if (seen.insert(token).second) distinct[i].push_back(&token);
      }
    }
  });
  for (const auto& doc : distinct) {
    for (const std::string* token : doc) ++doc_freq_[*token];
  }
}

float TfidfModel::Idf(const std::string& token) const {
  auto it = doc_freq_.find(token);
  size_t df = (it == doc_freq_.end()) ? 0 : it->second;
  return std::log((1.0f + static_cast<float>(num_documents_)) /
                  (1.0f + static_cast<float>(df))) +
         1.0f;
}

std::unordered_map<std::string, float> TfidfModel::Weights(
    const std::vector<std::string>& tokens) const {
  std::unordered_map<std::string, float> tf;
  for (const auto& token : tokens) tf[token] += 1.0f;
  for (auto& [token, weight] : tf) {
    weight = (weight / static_cast<float>(tokens.size())) * Idf(token);
  }
  return tf;
}

std::vector<std::string> TfidfModel::TopTokens(
    const std::vector<std::string>& tokens, size_t limit) const {
  auto weights = Weights(tokens);
  std::vector<std::pair<std::string, float>> ranked(weights.begin(),
                                                    weights.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > limit) ranked.resize(limit);
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& [token, weight] : ranked) out.push_back(token);
  return out;
}

}  // namespace dust::text
