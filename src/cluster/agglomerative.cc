#include "cluster/agglomerative.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "la/simd/kernels.h"
#include "util/status.h"

namespace dust::cluster {

namespace {

// Union-find with path compression used to replay merges when cutting.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

// The working matrix is compacted once this share of its rows is dead
// (1/kCompactDivisor): row scans stay within 4/3 of the live count, and
// the copies sum to a small constant times the first n^2.
constexpr size_t kCompactDivisor = 4;

// Side of the square tiles (live rows x rewritten slots) in which the
// catch-up before a compaction moves stale pairs.
constexpr size_t kCatchUpTile = 64;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// row_a[c] = Lance-Williams(row_a[c], row_b[c]) for every column c, dead
/// ones included: one branch-free pass the compiler vectorizes.
template <Linkage kLinkage>
void UpdateRowOf(float* __restrict row_a, const float* __restrict row_b,
                 const float* __restrict sizes, size_t m, float d_ab, float na,
                 float nb) {
  for (size_t c = 0; c < m; ++c) {
    row_a[c] = LanceWilliamsOf<kLinkage>(row_a[c], row_b[c], d_ab, na, nb,
                                         sizes[c]);
  }
}

void UpdateRow(Linkage linkage, float* row_a, const float* row_b,
               const float* sizes, size_t m, float d_ab, float na, float nb) {
  switch (linkage) {
    case Linkage::kSingle:
      return UpdateRowOf<Linkage::kSingle>(row_a, row_b, sizes, m, d_ab, na,
                                           nb);
    case Linkage::kComplete:
      return UpdateRowOf<Linkage::kComplete>(row_a, row_b, sizes, m, d_ab, na,
                                             nb);
    case Linkage::kAverage:
      return UpdateRowOf<Linkage::kAverage>(row_a, row_b, sizes, m, d_ab, na,
                                            nb);
    case Linkage::kWard:
      return UpdateRowOf<Linkage::kWard>(row_a, row_b, sizes, m, d_ab, na, nb);
  }
  DUST_CHECK(false && "invalid Linkage enum value");
}

}  // namespace

Dendrogram AgglomerativeCluster(la::DistanceMatrix distances, Linkage linkage) {
  const size_t n = distances.size();
  Dendrogram dendrogram;
  dendrogram.num_leaves = n;
  if (n <= 1) return dendrogram;
  const la::simd::Kernels& ops = la::simd::Active();

  // The matrix is reworked in place as a width x width working matrix over
  // slots 0..width-1, width shrinking at each compaction. A slot is a live
  // cluster or one dead since the last compaction; leaf[x] is a leaf of
  // slot x's cluster, the name merges are recorded under. The diagonal
  // holds +inf, and so does a dead slot's column in every row read since it
  // died, so the nearest neighbour is simply the row's first minimum.
  float* d = distances.data();
  size_t width = n;
  auto row = [&d, &width](size_t x) { return d + x * width; };
  std::vector<size_t> leaf(n);
  std::iota(leaf.begin(), leaf.end(), 0);
  // Cluster sizes in the type Lance-Williams reads (exact below 2^24).
  std::vector<float> size(n, 1.0f);
  std::vector<unsigned char> alive(n, 1);
  // A merge rewrites only its own row. merge_log[k] is the k-th merge since
  // the last compaction: slot a rewritten as a ∪ b, slot b dead. synced[x]
  // counts the entries row x has taken in, and last[a] is the latest entry
  // that rewrote row a (read only for a slot some entry names). A row is
  // rewritten right after it is synced, so for live x != y the current
  // distance sits in row(y)[x] when y was rewritten at an entry row x has
  // not taken in (last[y] >= synced[x]), and in row(x)[y] otherwise; the
  // two cases never both hold. sync(x) makes row x current before it is
  // read: +inf into each new dead column, and each newer rewrite pulled in
  // from the rewritten row. A dead row (left on the chain only when
  // rounding breaks reducibility) pulls nothing, keeping the values it
  // died with.
  struct LogEntry {
    size_t a, b;
  };
  std::vector<LogEntry> merge_log;
  std::vector<size_t> synced(n, 0);
  std::vector<size_t> last(n, 0);
  auto sync = [&](size_t x) {
    float* r = row(x);
    const bool pull = alive[x] != 0;
    for (size_t k = synced[x]; k < merge_log.size(); ++k) {
      const auto [a, b] = merge_log[k];
      r[b] = kInf;
      if (pull && last[a] == k && alive[a] && a != x) r[a] = row(a)[x];
    }
    synced[x] = merge_log.size();
  };
  for (size_t x = 0; x < n; ++x) row(x)[x] = kInf;

  // NN-chain stack.
  std::vector<size_t> chain;
  chain.reserve(n);

  struct RawMerge {
    size_t leaf_a, leaf_b;  // a leaf belonging to each merged cluster
    float distance;
  };
  std::vector<RawMerge> raw;
  raw.reserve(n - 1);

  // Drops the dead slots once every live row has caught up: live rows and
  // columns move down in order, so slot order (and with it every
  // first-minimum tie-break) is unchanged. Each destination precedes its
  // source, so the copy runs front to back within the one buffer.
  std::vector<size_t> live;
  std::vector<size_t> rewritten;
  std::vector<size_t> slot_of(n);
  auto compact = [&]() {
    live.clear();
    for (size_t x = 0; x < width; ++x) {
      if (alive[x]) {
        slot_of[x] = live.size();
        live.push_back(x);
      }
    }
    // First every live row catches up: each pair it still holds stale,
    // (x, a) with last[a] >= synced[x], is read from row a. Tiles of
    // kCatchUpTile live rows x kCatchUpTile rewritten slots, in slot order,
    // keep the strided reads of row(a)[x] and the scattered writes into
    // row x within cache. A pair is written only where it is stale and read
    // only where it is current, so no write feeds a read. Dead columns are
    // dropped and need no +inf.
    rewritten.clear();
    for (size_t k = 0; k < merge_log.size(); ++k) {
      const size_t a = merge_log[k].a;
      if (last[a] == k && alive[a]) rewritten.push_back(a);
    }
    std::sort(rewritten.begin(), rewritten.end());
    for (size_t i0 = 0; i0 < live.size(); i0 += kCatchUpTile) {
      const size_t i1 = std::min(i0 + kCatchUpTile, live.size());
      for (size_t j0 = 0; j0 < rewritten.size(); j0 += kCatchUpTile) {
        const size_t j1 = std::min(j0 + kCatchUpTile, rewritten.size());
        for (size_t i = i0; i < i1; ++i) {
          const size_t x = live[i];
          float* r = row(x);
          for (size_t j = j0; j < j1; ++j) {
            const size_t a = rewritten[j];
            if (a != x && last[a] >= synced[x]) r[a] = row(a)[x];
          }
        }
      }
    }
    const size_t next_width = live.size();
    for (size_t i = 0; i < next_width; ++i) {
      const float* from = d + live[i] * width;
      float* to = d + i * next_width;
      for (size_t j = 0; j < next_width; ++j) to[j] = from[live[j]];
      leaf[i] = leaf[live[i]];
      size[i] = size[live[i]];
    }
    for (size_t& x : chain) x = slot_of[x];
    width = next_width;
    std::fill(alive.begin(), alive.begin() + width, 1);
    std::fill(synced.begin(), synced.begin() + width, 0);
    merge_log.clear();
  };

  size_t remaining = n;
  while (remaining > 1) {
    if (chain.empty()) {
      // Start a new chain from the lowest-index live cluster.
      size_t x = 0;
      while (!alive[x]) ++x;
      chain.push_back(x);
    }
    while (true) {
      const size_t top = chain.back();
      sync(top);
      const float* r = row(top);
      size_t nn = ops.argmin(r, width);
      float dist = r[nn];
      if (!(dist < kInf)) {
        // No finite distance to a live cluster: the first live +inf entry
        // before `top`, else `top` itself, as a full scan would pick.
        dist = kInf;
        nn = top;
        for (size_t y = 0; y < top; ++y) {
          if (alive[y] && r[y] == kInf) {
            nn = y;
            break;
          }
        }
      }
      // Prefer the chain predecessor on ties so reciprocity is detected.
      if (chain.size() >= 2) {
        size_t prev = chain[chain.size() - 2];
        if (r[prev] == dist) nn = prev;
      }
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Reciprocal nearest neighbors: merge top and nn.
        const size_t a = top;
        const size_t b = nn;
        chain.pop_back();
        chain.pop_back();

        float* row_a = row(a);
        const float d_ab = row_a[b];
        raw.push_back({leaf[a], leaf[b], d_ab});

        // Slot a becomes a ∪ b. Both rows are current and hold +inf in
        // every dead column, which Lance-Williams keeps non-finite; the
        // diagonal is restored and b's column turns +inf at row a's next
        // sync. Every other row takes in the new values when next read.
        sync(b);
        UpdateRow(linkage, row_a, row(b), size.data(), width, d_ab, size[a],
                  size[b]);
        row_a[a] = kInf;
        alive[b] = 0;
        last[a] = merge_log.size();
        merge_log.push_back({a, b});
        size[a] += size[b];
        --remaining;
        // A chain still holding a dead slot (possible only when rounding
        // breaks reducibility) has no place in the compacted matrix, so it
        // postpones compaction.
        if (merge_log.size() * kCompactDivisor >= width &&
            std::all_of(chain.begin(), chain.end(),
                        [&alive](size_t x) { return alive[x] != 0; })) {
          compact();
        }
        break;
      }
      // Only a row with no finite live distance and no +inf one before
      // `top` (NaN input) ends here: the cluster would merge with itself.
      DUST_CHECK(nn != top);
      chain.push_back(nn);
    }
  }

  // NN-chain emits merges out of distance order. Sort ascending (stable for
  // determinism on ties) and re-derive cluster ids with a union-find over
  // leaf representatives (scipy's "label" step): merge i in sorted order
  // creates id n+i and can only reference earlier ids.
  std::vector<size_t> order(raw.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return raw[x].distance < raw[y].distance;
  });

  UnionFind uf(n);
  std::vector<size_t> root_dendro_id(n);
  std::iota(root_dendro_id.begin(), root_dendro_id.end(), 0);
  std::vector<size_t> root_size(n, 1);

  dendrogram.merges.reserve(raw.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const RawMerge& m = raw[order[i]];
    size_t ra = uf.Find(m.leaf_a);
    size_t rb = uf.Find(m.leaf_b);
    DUST_CHECK(ra != rb);
    Merge merge;
    merge.a = root_dendro_id[ra];
    merge.b = root_dendro_id[rb];
    if (merge.a > merge.b) std::swap(merge.a, merge.b);
    merge.distance = m.distance;
    merge.size = root_size[ra] + root_size[rb];
    uf.Union(ra, rb);
    size_t root = uf.Find(ra);
    root_dendro_id[root] = n + i;
    root_size[root] = merge.size;
    dendrogram.merges.push_back(merge);
  }
  return dendrogram;
}

std::vector<size_t> CutDendrogram(const Dendrogram& dendrogram, size_t k) {
  const size_t n = dendrogram.num_leaves;
  DUST_CHECK(k >= 1 && k <= std::max<size_t>(n, 1));
  std::vector<size_t> labels(n, 0);
  if (n == 0) return labels;

  UnionFind uf(n);
  // Track, for each dendrogram node id, a representative leaf.
  std::vector<size_t> rep(n + dendrogram.merges.size());
  std::iota(rep.begin(), rep.begin() + n, 0);

  size_t merges_to_apply = n - k;
  for (size_t i = 0; i < dendrogram.merges.size(); ++i) {
    const Merge& m = dendrogram.merges[i];
    size_t ra = rep[m.a];
    size_t rb = rep[m.b];
    if (i < merges_to_apply) uf.Union(ra, rb);
    rep[n + i] = ra;
  }

  // Dense relabeling ordered by first occurrence.
  std::vector<int> root_to_label(n, -1);
  size_t next_label = 0;
  for (size_t x = 0; x < n; ++x) {
    size_t root = uf.Find(x);
    if (root_to_label[root] < 0) {
      root_to_label[root] = static_cast<int>(next_label++);
    }
    labels[x] = static_cast<size_t>(root_to_label[root]);
  }
  DUST_CHECK(next_label == k);
  return labels;
}

std::vector<std::vector<size_t>> GroupByLabel(const std::vector<size_t>& labels) {
  size_t k = 0;
  for (size_t label : labels) k = std::max(k, label + 1);
  std::vector<std::vector<size_t>> groups(k);
  for (size_t i = 0; i < labels.size(); ++i) groups[labels[i]].push_back(i);
  return groups;
}

}  // namespace dust::cluster
