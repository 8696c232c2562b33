#include "serve/result_cache.h"

#include <algorithm>
#include <cstring>

#include "text/hashing.h"
#include "util/status.h"

namespace dust::serve {

namespace {

/// Approximate resident size of one cached hit list; the fixed overhead
/// stands in for the list node, map slot, and Entry header so a cache full
/// of tiny results still respects a meaningful byte budget.
constexpr size_t kEntryOverheadBytes = 128;

size_t EntryBytes(const std::vector<search::TupleHit>& hits) {
  return kEntryOverheadBytes + hits.size() * sizeof(search::TupleHit);
}

}  // namespace

size_t ResultCache::KeyHash::operator()(const Key& key) const {
  // Chain the three components through FNV-1a, matching the repo's
  // staleness-hash idiom (core/pipeline.cc).
  char bytes[sizeof(uint64_t) * 3];
  std::memcpy(bytes, &key.query_fingerprint, sizeof(uint64_t));
  std::memcpy(bytes + sizeof(uint64_t), &key.k, sizeof(uint64_t));
  std::memcpy(bytes + 2 * sizeof(uint64_t), &key.config_hash,
              sizeof(uint64_t));
  return static_cast<size_t>(
      text::HashString(std::string_view(bytes, sizeof(bytes))));
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_([&] {
        if (options.stripes == 0) options.stripes = 1;
        if (options.capacity_entries == 0) options.capacity_entries = 1;
        return options;
      }()),
      // Budgets round up so stripes * budget >= capacity; a stripe always
      // holds at least one entry, otherwise the cache could never hit.
      stripe_entry_budget_(std::max<size_t>(
          1, (options_.capacity_entries + options_.stripes - 1) /
                 options_.stripes)),
      stripe_byte_budget_(std::max<size_t>(
          kEntryOverheadBytes,
          (options_.capacity_bytes + options_.stripes - 1) /
              options_.stripes)) {
  stripes_.reserve(options_.stripes);
  for (size_t i = 0; i < options_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

ResultCache::Stripe& ResultCache::StripeOf(const Key& key) {
  return *stripes_[KeyHash{}(key) % stripes_.size()];
}

void ResultCache::EraseLocked(Stripe* stripe,
                              std::list<Entry>::iterator it) {
  stripe->bytes -= it->bytes;
  bytes_.Sub(static_cast<int64_t>(it->bytes));
  entries_.Sub(1);
  stripe->index.erase(it->key);
  stripe->lru.erase(it);
}

bool ResultCache::Lookup(const Key& key, uint64_t snapshot_hash,
                         std::vector<search::TupleHit>* out) {
  DUST_CHECK(out != nullptr);
  Stripe& stripe = StripeOf(key);
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto found = stripe.index.find(key);
    if (found != stripe.index.end()) {
      if (found->second->snapshot_hash != snapshot_hash) {
        // The lake changed under this entry; drop it so a re-indexed or
        // reloaded lake can never serve stale hits.
        EraseLocked(&stripe, found->second);
        invalidations_.Increment();
      } else {
        stripe.lru.splice(stripe.lru.begin(), stripe.lru, found->second);
        *out = found->second->hits;  // copy: bit-identical to the insert
        hits_.Increment();
        return true;
      }
    }
  }
  misses_.Increment();
  return false;
}

void ResultCache::Insert(const Key& key, uint64_t snapshot_hash,
                         const std::vector<search::TupleHit>& hits) {
  const size_t bytes = EntryBytes(hits);
  if (bytes > stripe_byte_budget_) return;  // would evict the whole stripe
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto found = stripe.index.find(key);
  if (found != stripe.index.end()) {
    // Concurrent misses on one key both dispatch and both insert; refresh
    // in place (the payloads are identical unless the snapshot changed).
    EraseLocked(&stripe, found->second);
  }
  stripe.lru.push_front(Entry{key, snapshot_hash, hits, bytes});
  stripe.index.emplace(key, stripe.lru.begin());
  stripe.bytes += bytes;
  bytes_.Add(static_cast<int64_t>(bytes));
  entries_.Add(1);
  insertions_.Increment();
  while (stripe.lru.size() > stripe_entry_budget_ ||
         stripe.bytes > stripe_byte_budget_) {
    EraseLocked(&stripe, std::prev(stripe.lru.end()));
    evictions_.Increment();
  }
}

void ResultCache::RegisterWith(Metrics* metrics) const {
  DUST_CHECK(metrics != nullptr);
  metrics->RegisterCounter("dust_cache_hits_total", &hits_);
  metrics->RegisterCounter("dust_cache_misses_total", &misses_);
  metrics->RegisterCounter("dust_cache_evictions_total", &evictions_);
  metrics->RegisterCounter("dust_cache_invalidations_total", &invalidations_);
  metrics->RegisterCounter("dust_cache_insertions_total", &insertions_);
  metrics->RegisterGauge("dust_cache_entries", &entries_);
  metrics->RegisterGauge("dust_cache_bytes", &bytes_);
}

}  // namespace dust::serve
