#include "text/tokenizer.h"

#include <cctype>

namespace dust::text {

std::vector<std::string> WordTokens(std::string_view s) {
  std::vector<std::string> out;
  ForEachWord(s, [&](std::string_view word) {
    std::string& token = out.emplace_back(word);
    for (char& c : token) c = LowerWordByte(c);
  });
  return out;
}

std::vector<std::string> CharNgrams(std::string_view s, size_t n) {
  std::vector<std::string> out;
  for (const std::string& word : WordTokens(s)) {
    std::string padded = "<" + word + ">";
    if (padded.size() <= n) {
      out.push_back(padded);
      continue;
    }
    for (size_t i = 0; i + n <= padded.size(); ++i) {
      out.push_back(padded.substr(i, n));
    }
  }
  return out;
}

std::vector<std::string> SubwordPieces(std::string_view s, size_t max_piece) {
  std::vector<std::string> out;
  if (max_piece == 0) max_piece = 4;
  for (const std::string& word : WordTokens(s)) {
    if (word.size() <= max_piece) {
      out.push_back(word);
      continue;
    }
    size_t pos = 0;
    bool first = true;
    while (pos < word.size()) {
      size_t len = std::min(max_piece, word.size() - pos);
      std::string piece = word.substr(pos, len);
      if (!first) piece = "##" + piece;
      out.push_back(piece);
      pos += len;
      first = false;
    }
  }
  return out;
}

size_t ApproxTokenCount(std::string_view s) {
  size_t count = 0;
  bool in_token = false;
  for (char raw : s) {
    bool space = std::isspace(static_cast<unsigned char>(raw)) != 0;
    if (!space && !in_token) ++count;
    in_token = !space;
  }
  return count;
}

}  // namespace dust::text
