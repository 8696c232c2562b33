// Tokenization utilities used by the embedding models.
//
// Three granularities mirror the model families of Sec. 6.2.3:
//  - word tokens        (FastText / GloVe style)
//  - character n-grams  (FastText subword enrichment)
//  - subword pieces     (BERT / RoBERTa / sBERT style: words split into
//                        bounded-length pieces, approximating WordPiece)
#ifndef DUST_TEXT_TOKENIZER_H_
#define DUST_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace dust::text {

/// A word byte: an ASCII letter or digit, as isalnum classifies bytes in
/// the "C" locale, whatever locale the process runs in. Every other byte,
/// including each byte >= 0x80, separates words.
inline bool IsWordByte(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

/// Lowercase of a word byte: digits and lower-case letters already have
/// bit 0x20 set, and setting it maps 'A'..'Z' to 'a'..'z'.
inline char LowerWordByte(char c) { return static_cast<char>(c | 0x20); }

/// Calls fn(word) for every word of `s`, in order: each maximal run of word
/// bytes, as a span of `s`, not yet lowercased. WordTokens and the streaming
/// feature hashes (embed::AppendFeatureHashes) both split words with it.
template <typename Fn>
void ForEachWord(std::string_view s, Fn&& fn) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && !IsWordByte(s[i])) ++i;
    const size_t begin = i;
    while (i < s.size() && IsWordByte(s[i])) ++i;
    if (i > begin) fn(s.substr(begin, i - begin));
  }
}

/// Lowercases and splits on non-alphanumeric boundaries; digits are kept as
/// their own tokens so "773 731-0380" yields {"773", "731", "0380"}.
std::vector<std::string> WordTokens(std::string_view s);

/// Character n-grams of each word padded with '<' '>' (FastText convention).
/// E.g. n=3, "park" -> {"<pa", "par", "ark", "rk>"}.
std::vector<std::string> CharNgrams(std::string_view s, size_t n);

/// Greedy fixed-length subword pieces per word (WordPiece approximation):
/// "chippewa" with max_piece=4 -> {"chip", "##pewa"... } pieces of at most
/// `max_piece` chars, continuation pieces prefixed with "##".
std::vector<std::string> SubwordPieces(std::string_view s, size_t max_piece);

/// Number of whitespace-separated tokens — the token budget proxy used by
/// the simulated LLM baseline.
size_t ApproxTokenCount(std::string_view s);

}  // namespace dust::text

#endif  // DUST_TEXT_TOKENIZER_H_
