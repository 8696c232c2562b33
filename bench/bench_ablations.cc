// Ablation benches for DUST's design choices (DESIGN.md §3):
//  (1) cluster representative: medoid (Sec. 5.2) vs random member;
//  (2) linkage criterion: average (paper) vs single/complete/Ward;
//  (3) re-ranking tie-break: average-distance tie-break (Sec. 5.3) on/off.
#include <cmath>
#include <algorithm>

#include "bench/bench_util.h"
#include "cluster/agglomerative.h"
#include "cluster/medoid.h"
#include "diversify/dust_diversifier.h"
#include "diversify/metrics.h"

using namespace dust;

namespace {

diversify::DiversityScores ScoreSelection(
    const std::vector<la::Vec>& query, const std::vector<la::Vec>& lake,
    const std::vector<size_t>& selected) {
  std::vector<la::Vec> points;
  for (size_t i : selected) points.push_back(lake[i]);
  return diversify::ScoreDiversity(query, points, la::Metric::kCosine);
}

// DUST variant that takes a random member instead of the medoid.
std::vector<size_t> DustWithRandomRepresentative(
    const diversify::DiversifyInput& input, size_t k, size_t p,
    uint64_t seed) {
  const std::vector<la::Vec>& lake = *input.lake;
  cluster::Dendrogram dendrogram = cluster::AgglomerativeCluster(
      la::DistanceMatrix(lake, input.metric), cluster::Linkage::kAverage);
  std::vector<size_t> labels =
      cluster::CutDendrogram(dendrogram, std::min(lake.size(), k * p));
  Rng rng(seed);
  std::vector<size_t> candidates;
  for (const auto& members : cluster::GroupByLabel(labels)) {
    if (members.empty()) continue;
    candidates.push_back(members[rng.NextBelow(members.size())]);
  }
  std::vector<size_t> ranked =
      diversify::RankCandidatesAgainstQuery(input, candidates);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace

int main() {
  bench::PrintHeader("DUST design-choice ablations");
  const size_t kDim = 48;
  const size_t kK = 50;
  std::vector<la::Vec> query = bench::SyntheticTupleCloud(25, kDim, 5, 41);
  std::vector<la::Vec> lake = bench::SyntheticTupleCloud(1200, kDim, 30, 43);

  diversify::DiversifyInput input;
  input.query = &query;
  input.lake = &lake;

  // (1) medoid vs random representative.
  std::printf("\n(1) cluster representative (Sec. 5.2)\n");
  bench::PrintRow({"Variant", "AvgDiv", "MinDiv"});
  {
    diversify::DustDiversifierConfig config;
    config.prune_s = 1 << 30;
    diversify::DustDiversifier dust(config);
    auto scores = ScoreSelection(query, lake, dust.SelectDiverse(input, kK));
    bench::PrintRow({"medoid", bench::Fmt("%.4f", scores.average),
                     bench::Fmt("%.4f", scores.min)});
    double rnd_avg = 0.0;
    double rnd_min = 0.0;
    const int kTrials = 5;
    for (int trial = 0; trial < kTrials; ++trial) {
      auto s = ScoreSelection(
          query, lake,
          DustWithRandomRepresentative(input, kK, 2, 100 + trial));
      rnd_avg += s.average;
      rnd_min += s.min;
    }
    bench::PrintRow({"random-member", bench::Fmt("%.4f", rnd_avg / kTrials),
                     bench::Fmt("%.4f", rnd_min / kTrials)});
  }

  // (2) linkage sweep.
  std::printf("\n(2) linkage criterion (paper uses average)\n");
  bench::PrintRow({"Linkage", "AvgDiv", "MinDiv"});
  for (cluster::Linkage linkage :
       {cluster::Linkage::kAverage, cluster::Linkage::kComplete,
        cluster::Linkage::kSingle, cluster::Linkage::kWard}) {
    diversify::DustDiversifierConfig config;
    config.prune_s = 1 << 30;
    config.linkage = linkage;
    diversify::DustDiversifier dust(config);
    auto scores = ScoreSelection(query, lake, dust.SelectDiverse(input, kK));
    bench::PrintRow({cluster::LinkageName(linkage),
                     bench::Fmt("%.4f", scores.average),
                     bench::Fmt("%.4f", scores.min)});
  }

  // (3) tie-break on/off: rank with and without the mean-distance
  // tie-break by comparing against a min-only ranking.
  std::printf("\n(3) re-ranking tie-break (Sec. 5.3)\n");
  {
    diversify::DustDiversifierConfig config;
    config.prune_s = 1 << 30;
    diversify::DustDiversifier dust(config);
    std::vector<size_t> with_tiebreak = dust.SelectDiverse(input, kK);
    // Without: quantize min-distances so ties are frequent, then rank by
    // min only (stable order = input order on ties).
    std::vector<std::pair<float, size_t>> ranked;
    for (size_t i = 0; i < lake.size(); ++i) {
      float quantized = std::round(
          diversify::MinDistanceToQuery(input, i) * 20.0f) / 20.0f;
      ranked.push_back({quantized, i});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    std::vector<size_t> without;
    for (size_t i = 0; i < kK; ++i) without.push_back(ranked[i].second);
    auto s_with = ScoreSelection(query, lake, with_tiebreak);
    auto s_without = ScoreSelection(query, lake, without);
    bench::PrintRow({"Variant", "AvgDiv", "MinDiv"});
    bench::PrintRow({"full DUST rank", bench::Fmt("%.4f", s_with.average),
                     bench::Fmt("%.4f", s_with.min)});
    bench::PrintRow({"min-only (quantized)",
                     bench::Fmt("%.4f", s_without.average),
                     bench::Fmt("%.4f", s_without.min)});
  }

  std::printf(
      "\nExpected: medoid >= random member on Min; average linkage is a\n"
      "solid default; the full DUST ranking beats a min-only ranking that\n"
      "cannot break ties.\n");
  return 0;
}
