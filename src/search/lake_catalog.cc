#include "search/lake_catalog.h"

#include <utility>

#include "io/index_io.h"
#include "text/hashing.h"

namespace dust::search {

LakeCatalog::LakeCatalog(const cascade::CascadeConfig& config)
    : config_(config) {}

void LakeCatalog::Reset(const std::vector<const table::Table*>& lake) {
  ResetUnnamed(0);  // clears the slots, the signals and the counter
  named_ = true;
  slots_.reserve(lake.size());
  for (const table::Table* t : lake) Append(*t);
}

void LakeCatalog::ResetUnnamed(size_t num_tables) {
  slots_.assign(num_tables, Slot{});
  named_ = false;
  mutations_ = 0;
  signatures_.clear();
  sketches_.clear();
}

void LakeCatalog::Append(const table::Table& table) {
  slots_.push_back(
      {table.name(), table.num_columns(), table.num_rows(), false});
  if (!config_.enabled) return;
  signatures_.push_back(cascade::SignatureOf(table));
  if (config_.prescreen) {
    sketches_.emplace_back(cascade::TableValueSample(table),
                           config_.minhash_hashes, config_.minhash_seed);
  }
}

Status LakeCatalog::CheckNamed() const {
  if (named_) return Status::Ok();
  return Status::FailedPrecondition(
      "engine state was restored from a snapshot, which does not carry "
      "table names; re-run IndexLake before mutating");
}

Status LakeCatalog::Add(const table::Table& table) {
  DUST_RETURN_IF_ERROR(CheckNamed());
  for (const Slot& s : slots_) {
    if (!s.removed && s.name == table.name()) {
      return Status::InvalidArgument(
          "a live table named " + table.name() +
          " is already indexed; RemoveTable it first to replace it");
    }
  }
  Append(table);
  ++mutations_;
  return Status::Ok();
}

Result<size_t> LakeCatalog::Remove(const std::string& name) {
  DUST_RETURN_IF_ERROR(CheckNamed());
  for (size_t t = 0; t < slots_.size(); ++t) {
    if (slots_[t].removed || slots_[t].name != name) continue;
    slots_[t].removed = true;
    ++mutations_;
    return t;
  }
  return Status::NotFound("no live table named " + name + " in the lake");
}

size_t LakeCatalog::num_live() const {
  size_t live = 0;
  for (const Slot& s : slots_) live += s.removed ? 0 : 1;
  return live;
}

uint64_t LakeCatalog::ChainState(uint64_t h) const {
  h = text::ChainHash(h, num_live());
  for (const Slot& s : slots_) {
    if (s.removed) continue;
    h = text::ChainHash(h, s.name);
    h = text::ChainHash(h, s.num_columns);
    h = text::ChainHash(h, s.num_rows);
  }
  return text::ChainHash(h, mutations_);
}

Status LakeCatalog::Prefilter(const table::Table& query,
                              const cascade::CascadeSearch& cascade,
                              cascade::CandidateSet* set,
                              std::vector<cascade::StageStats>* stats) const {
  set->tables.reserve(slots_.size());
  for (size_t t = 0; t < slots_.size(); ++t) {
    if (!slots_[t].removed) set->tables.push_back(t);
  }
  if (!config_.enabled) return Status::Ok();
  std::vector<const cascade::CandidateStage*> stages;
  if (config_.prefilter) {
    set->query_signature = cascade::SignatureOf(query);
    stages.push_back(&prefilter_stage_);
  }
  MinHashSketch query_sketch;
  if (config_.prescreen) {
    query_sketch = MinHashSketch(cascade::TableValueSample(query),
                                 config_.minhash_hashes, config_.minhash_seed);
    set->query_sketch = &query_sketch;
    stages.push_back(&prescreen_stage_);
  }
  Status status = cascade.Run(stages, *set, stats);
  set->query_sketch = nullptr;  // the sketch dies with this frame
  return status;
}

Status LakeCatalog::SaveSignals(io::IndexWriter* writer) const {
  // A flag byte keeps disabled configs round-tripping with no cascade
  // payload at all.
  writer->WriteU8(config_.enabled ? 1 : 0);
  if (config_.enabled) {
    writer->WriteU64(signatures_.size());
    for (const cascade::TableSignature& sig : signatures_) {
      writer->WriteU64(sig.columns);
      writer->WriteU64(sig.numeric_columns);
    }
    writer->WriteU64(sketches_.size());
    for (const MinHashSketch& sketch : sketches_) {
      writer->WriteU8(sketch.empty() ? 1 : 0);
      writer->WriteU64(sketch.mins().size());
      for (uint64_t m : sketch.mins()) writer->WriteU64(m);
    }
  }
  return writer->status();
}

Status LakeCatalog::LoadSignals(io::IndexReader* reader) {
  const size_t num_tables = slots_.size();
  uint8_t cascade_enabled = 0;
  DUST_RETURN_IF_ERROR(reader->ReadU8(&cascade_enabled));
  if ((cascade_enabled != 0) != config_.enabled) {
    return Status::FailedPrecondition(
        "snapshot cascade signals do not match engine config");
  }
  signatures_.clear();
  sketches_.clear();
  if (cascade_enabled == 0) return Status::Ok();
  uint64_t num_signatures = 0;
  DUST_RETURN_IF_ERROR(
      reader->ReadCount(2 * sizeof(uint64_t), &num_signatures));
  if (num_signatures != num_tables) {
    return Status::IoError("snapshot cascade signature count mismatch");
  }
  signatures_.reserve(num_signatures);
  for (uint64_t t = 0; t < num_signatures; ++t) {
    cascade::TableSignature sig;
    DUST_RETURN_IF_ERROR(reader->ReadU64(&sig.columns));
    DUST_RETURN_IF_ERROR(reader->ReadU64(&sig.numeric_columns));
    signatures_.push_back(sig);
  }
  uint64_t num_sketches = 0;
  DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint8_t), &num_sketches));
  if (num_sketches != 0 && num_sketches != num_tables) {
    return Status::IoError("snapshot cascade sketch count mismatch");
  }
  sketches_.reserve(num_sketches);
  for (uint64_t t = 0; t < num_sketches; ++t) {
    uint8_t sketch_empty = 0;
    DUST_RETURN_IF_ERROR(reader->ReadU8(&sketch_empty));
    uint64_t num_mins = 0;
    DUST_RETURN_IF_ERROR(reader->ReadCount(sizeof(uint64_t), &num_mins));
    if (num_mins != config_.minhash_hashes) {
      return Status::FailedPrecondition(
          "snapshot prescreen sketch width does not match engine config");
    }
    std::vector<uint64_t> mins(num_mins, 0);
    for (uint64_t m = 0; m < num_mins; ++m) {
      DUST_RETURN_IF_ERROR(reader->ReadU64(&mins[m]));
    }
    sketches_.push_back(
        MinHashSketch::FromState(std::move(mins), sketch_empty != 0));
  }
  if (config_.prescreen && sketches_.size() != num_tables) {
    return Status::FailedPrecondition(
        "snapshot has no prescreen sketches but the engine config enables "
        "the prescreen stage");
  }
  return Status::Ok();
}

}  // namespace dust::search
