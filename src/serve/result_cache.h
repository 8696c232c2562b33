// Bounded LRU cache of tuple-search results — the hot-query fast path.
//
// Production traffic is skewed: a handful of hot queries dominate. Caching
// their hit lists turns a repeat query into a fingerprint computation plus
// one striped-map probe, never touching the batch queue or the index.
//
// Keys are (query fingerprint, k, config hash): the fingerprint is FNV-1a
// over the query's encoded row vectors, so two tables that encode
// identically share an entry, and the config hash pins the index/pipeline
// knobs that shape results. Every entry additionally records the lake
// snapshot hash it was computed against; a lookup under a different hash is
// a miss and evicts the stale entry, so a reloaded or re-indexed lake can
// never serve stale hits.
//
// The map is striped: kStripes independent (mutex, LRU list, hash map)
// triplets, each owning 1/kStripes of the entry and byte budget, so
// concurrent hits on different stripes never serialize behind one lock —
// and never behind the dispatcher, which only touches the cache on insert.
#ifndef DUST_SERVE_RESULT_CACHE_H_
#define DUST_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "search/tuple_search.h"
#include "serve/metrics.h"

namespace dust::serve {

struct ResultCacheOptions {
  /// Maximum cached entries across all stripes. 0 entries disables caching
  /// at the QueryServer layer; the cache itself treats 0 as capacity 1.
  size_t capacity_entries = 4096;
  /// Maximum bytes of cached hit lists across all stripes.
  size_t capacity_bytes = size_t{64} << 20;
  /// Lock stripes; more stripes = less contention, coarser LRU. Use 1 for
  /// a globally LRU-ordered cache (deterministic eviction in tests).
  size_t stripes = 16;
};

class ResultCache {
 public:
  struct Key {
    uint64_t query_fingerprint = 0;
    uint64_t k = 0;
    uint64_t config_hash = 0;

    bool operator==(const Key& other) const {
      return query_fingerprint == other.query_fingerprint && k == other.k &&
             config_hash == other.config_hash;
    }
  };

  explicit ResultCache(ResultCacheOptions options);

  /// True and fills `*out` with a copy of the cached (bit-identical) hit
  /// list when `key` is present AND was inserted under `snapshot_hash`.
  /// An entry under a different snapshot hash is erased, counted as an
  /// invalidation, and reported as a miss.
  bool Lookup(const Key& key, uint64_t snapshot_hash,
              std::vector<search::TupleHit>* out);

  /// Inserts (or refreshes) `key` -> `hits` computed against
  /// `snapshot_hash`, evicting least-recently-used entries of the stripe
  /// while over the entry or byte budget. A hit list alone larger than the
  /// stripe's byte budget is not cached.
  void Insert(const Key& key, uint64_t snapshot_hash,
              const std::vector<search::TupleHit>& hits);

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }
  uint64_t invalidations() const { return invalidations_.value(); }
  size_t entries() const { return static_cast<size_t>(entries_.value()); }
  size_t bytes() const { return static_cast<size_t>(bytes_.value()); }

  /// Publishes the cache's counters and occupancy gauges into `metrics`
  /// under dust_cache_*. The cache must outlive the registry's renders.
  void RegisterWith(Metrics* metrics) const;

  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    Key key;
    uint64_t snapshot_hash = 0;
    std::vector<search::TupleHit> hits;
    size_t bytes = 0;
  };

  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  /// One lock stripe: its own LRU list (front = most recent) and index.
  struct Stripe {
    std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
  };

  Stripe& StripeOf(const Key& key);
  /// Removes `it` from `stripe` (caller holds stripe.mu) and updates the
  /// occupancy gauges.
  void EraseLocked(Stripe* stripe, std::list<Entry>::iterator it);

  const ResultCacheOptions options_;
  const size_t stripe_entry_budget_;
  const size_t stripe_byte_budget_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  Counter hits_;
  Counter misses_;
  Counter evictions_;
  Counter invalidations_;
  Counter insertions_;
  Gauge entries_;
  Gauge bytes_;
};

}  // namespace dust::serve

#endif  // DUST_SERVE_RESULT_CACHE_H_
