// Fig. 7 — diversification runtime scaling.
//  (a) runtime vs number of input unionable tuples s (k = 100);
//  (b) runtime vs number of output tuples k (fixed s);
//  (c) retrieval-phase shortlist scaling: flat scan vs HNSW, single and
//      batched queries (the index that feeds the diversifier its input).
// GMC is Θ(k·s²) (quadratic curve, grows with k); DUST and CLT are
// dominated by their O(s²) clustering step (shallow curve, flat in k):
// building the pairwise distance matrix and the NN-chain over it, which
// costs at least as much as the matrix (see BM_DistanceMatrix and
// BM_NnChainClustering in bench_micro_kernels).
#include <memory>

#include "bench/bench_util.h"
#include "diversify/clt.h"
#include "diversify/dust_diversifier.h"
#include "diversify/gmc.h"
#include "index/vector_index.h"
#include "util/stopwatch.h"

using namespace dust;

namespace {

double TimeOne(diversify::Diversifier* diversifier,
               const std::vector<la::Vec>& query,
               const std::vector<la::Vec>& lake, size_t k) {
  diversify::DiversifyInput input;
  input.query = &query;
  input.lake = &lake;
  Stopwatch watch;
  std::vector<size_t> selected = diversifier->SelectDiverse(input, k);
  (void)selected;
  return watch.Seconds();
}

}  // namespace

int main() {
  bench::PrintHeader("Fig. 7 reproduction: diversification runtime scaling");
  const size_t kDim = 48;
  std::vector<la::Vec> query = bench::SyntheticTupleCloud(20, kDim, 4, 11);

  diversify::GmcDiversifier gmc;
  diversify::CltDiversifier clt;
  diversify::DustDiversifierConfig dust_config;
  dust_config.prune_s = 1 << 30;  // pruning off: s is the clustering input
  diversify::DustDiversifier dust(dust_config);

  std::printf("\n(a) runtime vs number of input unionable tuples (k=100)\n");
  bench::PrintRow({"s", "GMC(s)", "CLT(s)", "DUST(s)"});
  for (size_t s : {1000u, 2000u, 3000u, 4000u, 5000u, 6000u}) {
    std::vector<la::Vec> lake = bench::SyntheticTupleCloud(s, kDim, 24, 7);
    double t_gmc = TimeOne(&gmc, query, lake, 100);
    double t_clt = TimeOne(&clt, query, lake, 100);
    double t_dust = TimeOne(&dust, query, lake, 100);
    bench::PrintRow({std::to_string(s), bench::Fmt("%.3f", t_gmc),
                     bench::Fmt("%.3f", t_clt), bench::Fmt("%.3f", t_dust)});
  }

  std::printf("\n(b) runtime vs number of output tuples (s=2500)\n");
  bench::PrintRow({"k", "GMC(s)", "CLT(s)", "DUST(s)"});
  std::vector<la::Vec> lake = bench::SyntheticTupleCloud(2500, kDim, 24, 9);
  for (size_t k : {100u, 200u, 300u, 400u, 500u}) {
    double t_gmc = TimeOne(&gmc, query, lake, k);
    double t_clt = TimeOne(&clt, query, lake, k);
    double t_dust = TimeOne(&dust, query, lake, k);
    bench::PrintRow({std::to_string(k), bench::Fmt("%.3f", t_gmc),
                     bench::Fmt("%.3f", t_clt), bench::Fmt("%.3f", t_dust)});
  }

  std::printf("\n(c) shortlist retrieval vs lake size (k=10, 64 queries)\n");
  bench::PrintRow(
      {"n", "Flat(s)", "HNSW(s)", "FlatBatch(s)", "HNSWBatch(s)"});
  std::vector<la::Vec> queries = bench::SyntheticTupleCloud(64, kDim, 8, 13);
  for (size_t n : {2000u, 5000u, 10000u, 20000u}) {
    std::vector<la::Vec> cloud = bench::SyntheticTupleCloud(n, kDim, 24, 17);
    auto flat = index::MakeVectorIndex("flat", kDim, la::Metric::kCosine);
    auto hnsw = index::MakeVectorIndex("hnsw", kDim, la::Metric::kCosine);
    flat->AddAll(cloud);
    hnsw->AddAll(cloud);
    Stopwatch watch;
    for (const la::Vec& q : queries) flat->Search(q, 10);
    double t_flat = watch.Seconds();
    watch.Restart();
    for (const la::Vec& q : queries) hnsw->Search(q, 10);
    double t_hnsw = watch.Seconds();
    watch.Restart();
    flat->SearchBatch(queries, 10, nullptr);
    double t_flat_batch = watch.Seconds();
    watch.Restart();
    hnsw->SearchBatch(queries, 10, nullptr);
    double t_hnsw_batch = watch.Seconds();
    bench::PrintRow({std::to_string(n), bench::Fmt("%.4f", t_flat),
                     bench::Fmt("%.4f", t_hnsw),
                     bench::Fmt("%.4f", t_flat_batch),
                     bench::Fmt("%.4f", t_hnsw_batch)});
  }

  std::printf(
      "\nPaper shape (Fig. 7): GMC grows quadratically with s and strongly\n"
      "with k; DUST's curve is shallow in s and essentially flat in k,\n"
      "tracking the clustering baseline CLT. The retrieval shortlist (c)\n"
      "grows linearly for the flat scan but stays nearly flat for HNSW.\n");
  return 0;
}
