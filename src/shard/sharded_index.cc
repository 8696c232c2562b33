#include "shard/sharded_index.h"

#include <cctype>
#include <utility>

#include "io/index_io.h"
#include "obs/trace.h"
#include "serve/executor.h"
#include "text/hashing.h"
#include "util/status.h"
#include "util/string_util.h"

namespace dust::shard {

namespace {

// A spec or manifest claiming more shards than this is a typo or corrupt
// file, not a real lake: shard counts are "a few per node", not millions.
// Manifest counts are also bounded against the bytes remaining in the file
// at load time.
constexpr uint64_t kMaxShards = uint64_t{1} << 16;

/// Digits-only count in [1, kMaxShards]; false otherwise (no silent wrap
/// of "-5", and no count the ShardedIndex constructor would refuse — spec
/// parsing is the user-facing validation boundary).
bool ParseShardCount(const std::string& s, size_t* out) {
  if (s.empty() || s.size() > 9) return false;
  size_t value = 0;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  if (value == 0 || value > kMaxShards) return false;
  *out = value;
  return true;
}

}  // namespace

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round_robin";
    case PlacementPolicy::kHash:
      return "hash";
  }
  DUST_CHECK(false && "unhandled placement policy");
  return "";
}

bool PlacementPolicyFromName(const std::string& name,
                             PlacementPolicy* policy) {
  if (name == "round_robin") {
    *policy = PlacementPolicy::kRoundRobin;
  } else if (name == "hash") {
    *policy = PlacementPolicy::kHash;
  } else {
    return false;
  }
  return true;
}

Status PlacementPolicyFromTag(uint8_t tag, PlacementPolicy* policy) {
  switch (tag) {
    case 0:
      *policy = PlacementPolicy::kRoundRobin;
      return Status::Ok();
    case 1:
      *policy = PlacementPolicy::kHash;
      return Status::Ok();
    default:
      return Status::IoError("unknown shard placement tag " +
                             std::to_string(static_cast<int>(tag)));
  }
}

bool IsShardedSpec(const std::string& spec) {
  return spec == "sharded" || spec.rfind("sharded:", 0) == 0;
}

bool ParseShardedSpec(const std::string& spec, ShardedIndexConfig* config) {
  if (!IsShardedSpec(spec)) return false;
  std::vector<std::string> parts = Split(spec, ':');
  ShardedIndexConfig parsed;
  if (parts.size() > 4) return false;
  if (parts.size() >= 2) {
    // The child must be a concrete type: nesting sharded-in-sharded would
    // compound the merge fan-out for no placement benefit.
    if (IsShardedSpec(parts[1]) || !index::IsKnownIndexType(parts[1])) {
      return false;
    }
    parsed.child_type = parts[1];
  }
  if (parts.size() >= 3 && !ParseShardCount(parts[2], &parsed.num_shards)) {
    return false;
  }
  if (parts.size() >= 4 &&
      !PlacementPolicyFromName(parts[3], &parsed.placement)) {
    return false;
  }
  *config = std::move(parsed);
  return true;
}

ShardedIndex::ShardedIndex(size_t dim, la::Metric metric,
                           ShardedIndexConfig config)
    : dim_(dim), metric_(metric), config_(std::move(config)) {
  DUST_CHECK(config_.num_shards >= 1 && "a sharded index needs >= 1 shard");
  DUST_CHECK(config_.num_shards <= kMaxShards);
  DUST_CHECK(!IsShardedSpec(config_.child_type) &&
             index::IsKnownIndexType(config_.child_type) &&
             "shard child must be a concrete index type");
  shards_.reserve(config_.num_shards);
  for (size_t s = 0; s < config_.num_shards; ++s) {
    shards_.push_back(index::MakeVectorIndex(config_.child_type, dim_,
                                             metric_, config_.child_options));
  }
  shard_ids_.resize(config_.num_shards);
}

size_t ShardedIndex::PlaceShard(const la::Vec& v) const {
  if (config_.placement == PlacementPolicy::kRoundRobin) {
    return total_ % shards_.size();
  }
  // Content-addressed placement: hash the raw float bytes so the same
  // vector always lands on the same shard, independent of insertion order.
  const std::string_view bytes(reinterpret_cast<const char*>(v.data()),
                               v.size() * sizeof(float));
  return static_cast<size_t>(text::HashString(bytes) % shards_.size());
}

void ShardedIndex::Add(const la::Vec& v) {
  DUST_CHECK(v.size() == dim_);
  const size_t s = PlaceShard(v);
  shards_[s]->Add(v);
  shard_ids_[s].push_back(total_++);
}

void ShardedIndex::AddAll(const std::vector<la::Vec>& vectors) {
  // Route the whole batch first, then hand each shard its vectors in one
  // bulk call — same ids as per-vector Add, but flat shards reserve and
  // fill their norm caches once. Buckets hold indices, not copies, and the
  // per-shard batch is materialized one shard at a time, so whole-lake
  // ingest peaks at one extra shard of vectors rather than a second copy
  // of the entire lake.
  std::vector<std::vector<size_t>> buckets(shards_.size());
  for (size_t i = 0; i < vectors.size(); ++i) {
    DUST_CHECK(vectors[i].size() == dim_);
    const size_t s = PlaceShard(vectors[i]);
    buckets[s].push_back(i);
    shard_ids_[s].push_back(total_++);
  }
  std::vector<la::Vec> batch;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (buckets[s].empty()) continue;
    batch.clear();
    batch.reserve(buckets[s].size());
    for (size_t i : buckets[s]) batch.push_back(vectors[i]);
    shards_[s]->AddAll(batch);
  }
}

std::vector<index::SearchHit> ShardedIndex::Search(const la::Vec& query,
                                                   size_t k) const {
  // Scatter: every shard answers top-k in parallel (a hit beyond a shard's
  // own top-k can never enter the merged top-k, so per-shard k is enough).
  std::vector<std::vector<index::SearchHit>> per_shard(shards_.size());
  const obs::TraceContext trace_ctx = obs::CurrentContext();
  serve::Executor& pool =
      executor_ != nullptr ? *executor_ : serve::Executor::Default();
  pool.ParallelFor(shards_.size(), [&](size_t s) {
    obs::ScopedTraceContext trace_scope(trace_ctx);
    obs::Span span("scatter");
    span.AddTag("shard", static_cast<uint64_t>(s));
    per_shard[s] = shards_[s]->Search(query, k);
  });
  // Gather: remap local ids to global and k-way merge. Merging in shard
  // order then FinalizeHits keeps the result deterministic (ascending
  // distance, ties by ascending global id) regardless of thread timing.
  std::vector<index::SearchHit> hits;
  hits.reserve(shards_.size() * k);
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const index::SearchHit& hit : per_shard[s]) {
      hits.push_back({shard_ids_[s][hit.id], hit.distance});
    }
  }
  index::FinalizeHits(&hits, k);
  return hits;
}

std::vector<std::vector<index::SearchHit>> ShardedIndex::SearchBatch(
    const std::vector<la::Vec>& queries, size_t k,
    serve::Executor* executor) const {
  std::vector<std::vector<index::SearchHit>> results(queries.size());
  if (queries.empty()) return results;
  // Shards run sequentially, each answering the whole batch with its own
  // internally-parallel SearchBatch; a second parallel layer across shards
  // would only oversubscribe the cores the children already use. (The base
  // default of Search-per-query would instead run a shard fan-out per
  // query.)
  std::vector<std::vector<std::vector<index::SearchHit>>> per_shard;
  per_shard.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    obs::Span span("scatter_batch");
    span.AddTag("shard", static_cast<uint64_t>(s));
    per_shard.push_back(shards_[s]->SearchBatch(queries, k, executor));
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<index::SearchHit> hits;
    hits.reserve(shards_.size() * k);
    for (size_t s = 0; s < shards_.size(); ++s) {
      for (const index::SearchHit& hit : per_shard[s][q]) {
        hits.push_back({shard_ids_[s][hit.id], hit.distance});
      }
    }
    index::FinalizeHits(&hits, k);
    results[q] = std::move(hits);
  }
  return results;
}

void ShardedIndex::EnsureRemovalMap() const {
  if (removal_map_.size() == total_) return;
  removal_map_.assign(total_, {0, 0});
  for (size_t s = 0; s < shard_ids_.size(); ++s) {
    for (size_t local = 0; local < shard_ids_[s].size(); ++local) {
      removal_map_[shard_ids_[s][local]] = {s, local};
    }
  }
}

bool ShardedIndex::Remove(size_t id) {
  if (id >= total_) return false;
  EnsureRemovalMap();
  const auto [s, local] = removal_map_[id];
  if (!shards_[s]->Remove(local)) return false;
  // Mirror the tombstone at the global level so IsDead/live_size answer
  // without consulting the children.
  if (dead_.size() < total_) dead_.resize(total_, 0);
  dead_[id] = 1;
  ++num_dead_;
  return true;
}

bool ShardedIndex::GetVector(size_t id, la::Vec* out) const {
  if (id >= total_) return false;
  EnsureRemovalMap();
  const auto [s, local] = removal_map_[id];
  return shards_[s]->GetVector(local, out);
}

void ShardedIndex::SetExecutor(serve::Executor* executor) {
  index::VectorIndex::SetExecutor(executor);
  for (const std::unique_ptr<index::VectorIndex>& shard : shards_) {
    shard->SetExecutor(executor);
  }
}

std::unique_ptr<index::VectorIndex> ShardedIndex::TakeShard(
    size_t s, std::vector<size_t>* global_ids) {
  DUST_CHECK(s < shards_.size());
  *global_ids = std::move(shard_ids_[s]);
  return std::move(shards_[s]);
}

std::string ShardedIndex::name() const {
  return "Sharded[" + std::to_string(shards_.size()) + "x" +
         (shards_.empty() ? config_.child_type : shards_[0]->name()) + "]";
}

Status ShardedIndex::SavePayload(io::IndexWriter* writer) const {
  writer->WriteBytes(io::kShardManifestMagic, sizeof(io::kShardManifestMagic));
  writer->WriteString(config_.child_type);
  writer->WriteU8(static_cast<uint8_t>(config_.placement));
  writer->WriteU64(shards_.size());
  writer->WriteU64(total_);
  for (const std::vector<size_t>& ids : shard_ids_) writer->WriteIds(ids);
  DUST_RETURN_IF_ERROR(writer->status());
  for (const std::unique_ptr<index::VectorIndex>& shard : shards_) {
    // Full header + payload per shard: each carries its own config and
    // round-trips through the same reader a standalone file would.
    DUST_RETURN_IF_ERROR(io::WriteIndex(*shard, writer));
  }
  return writer->status();
}

Status ShardedIndex::LoadPayload(io::IndexReader* reader) {
  // A crafted file can embed a sharded-tagged index as a "shard" (the
  // manifest's child-type string is only cross-checked after the child
  // loads), which would recurse ReadIndex -> LoadPayload per nesting level
  // until the stack overflows. Real files are never nested, so any
  // re-entrant load on this thread is corrupt input, not a lake.
  thread_local bool loading = false;
  if (loading) {
    return Status::IoError("shard manifest nests a sharded index");
  }
  loading = true;
  struct LoadingGuard {
    bool* flag;
    ~LoadingGuard() { *flag = false; }
  } guard{&loading};
  DUST_RETURN_IF_ERROR(
      reader->ExpectMagic(io::kShardManifestMagic, "DUST shard manifest"));
  std::string child_type;
  DUST_RETURN_IF_ERROR(reader->ReadString(&child_type));
  if (IsShardedSpec(child_type) || !index::IsKnownIndexType(child_type)) {
    return Status::IoError("shard manifest has unusable child type: " +
                           child_type);
  }
  uint8_t placement_tag = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&placement_tag));
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  DUST_RETURN_IF_ERROR(PlacementPolicyFromTag(placement_tag, &placement));
  uint64_t num_shards = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU64(&num_shards));
  // Every shard still owes at least an id-list count; bound the claimed
  // shard count by the bytes physically left in the file.
  if (num_shards == 0 || num_shards > kMaxShards ||
      num_shards > reader->remaining() / sizeof(uint64_t)) {
    return Status::IoError("shard manifest has corrupt shard count");
  }
  uint64_t total = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU64(&total));

  // The id mapping must be a bijection onto [0, total): a hole would make
  // gather emit an id nobody owns, a duplicate would double-count one.
  std::vector<std::vector<size_t>> shard_ids(num_shards);
  uint64_t mapped = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    DUST_RETURN_IF_ERROR(reader->ReadIds(&shard_ids[s]));
    mapped += shard_ids[s].size();
  }
  if (mapped != total) {
    return Status::IoError("shard manifest id lists do not cover the index");
  }
  std::vector<uint8_t> seen(total, 0);
  for (const std::vector<size_t>& ids : shard_ids) {
    for (size_t id : ids) {
      if (id >= total || seen[id]) {
        return Status::IoError("shard manifest id mapping is not a bijection");
      }
      seen[id] = 1;
    }
  }

  std::vector<std::unique_ptr<index::VectorIndex>> children;
  children.reserve(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    Result<std::unique_ptr<index::VectorIndex>> child = io::ReadIndex(reader);
    DUST_RETURN_IF_ERROR(child.status());
    std::unique_ptr<index::VectorIndex> loaded = std::move(child).value();
    if (loaded->type_tag() != child_type) {
      return Status::IoError("shard " + std::to_string(s) +
                             " type does not match manifest");
    }
    if (loaded->dim() != dim_ || loaded->metric() != metric_) {
      return Status::IoError("shard " + std::to_string(s) +
                             " dim/metric does not match the outer header");
    }
    if (loaded->size() != shard_ids[s].size()) {
      return Status::IoError("shard " + std::to_string(s) +
                             " size does not match the manifest id mapping");
    }
    children.push_back(std::move(loaded));
  }

  config_.child_type = std::move(child_type);
  config_.num_shards = static_cast<size_t>(num_shards);
  config_.placement = placement;
  shards_ = std::move(children);
  shard_ids_ = std::move(shard_ids);
  total_ = static_cast<size_t>(total);
  // The freshly loaded children replaced the ones SetExecutor may have
  // visited; re-install so a serving process can load after wiring.
  for (const std::unique_ptr<index::VectorIndex>& shard : shards_) {
    shard->SetExecutor(executor_);
  }
  // Rebuild the global tombstone view from the children's own (persisted)
  // tombstones: each child local id maps back through shard_ids_. The
  // removal map is stale for the new id space; drop it so the next
  // Remove/GetVector rebuilds it.
  dead_.clear();
  num_dead_ = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (size_t local : shards_[s]->Tombstones()) {
      if (dead_.size() < total_) dead_.resize(total_, 0);
      dead_[shard_ids_[s][local]] = 1;
      ++num_dead_;
    }
  }
  removal_map_.clear();
  return Status::Ok();
}

}  // namespace dust::shard
