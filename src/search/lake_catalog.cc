#include "search/lake_catalog.h"

#include "text/hashing.h"

namespace dust::search {

void LakeCatalog::Reset(const std::vector<const table::Table*>& lake) {
  ResetUnnamed(0);  // clears the slots and the counter
  named_ = true;
  slots_.reserve(lake.size());
  for (const table::Table* t : lake) Append(*t);
}

void LakeCatalog::ResetUnnamed(size_t num_tables) {
  slots_.assign(num_tables, Slot{});
  named_ = false;
  mutations_ = 0;
}

void LakeCatalog::Append(const table::Table& table) {
  slots_.push_back(
      {table.name(), table.num_columns(), table.num_rows(), false});
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

std::vector<size_t> LakeCatalog::LiveTables() const {
  std::vector<size_t> live;
  live.reserve(slots_.size());
  for (size_t t = 0; t < slots_.size(); ++t) {
    if (!slots_[t].removed) live.push_back(t);
  }
  return live;
}

uint64_t ChainRetiredCascadeDefaults(uint64_t h) {
  // The removed CascadeConfig's defaults, in its field order: enabled,
  // prefilter, prescreen, prefilter_min_type_overlap,
  // prefilter_max_column_ratio, prescreen_keep, minhash_hashes and
  // minhash_seed.
  h = text::HashString("dust-cascade-v1", h);
  h = text::ChainHash(h, uint64_t{0});
  h = text::ChainHash(h, uint64_t{1});
  h = text::ChainHash(h, uint64_t{1});
  h = text::ChainHash(h, 0.5);
  h = text::ChainHash(h, 4.0);
  h = text::ChainHash(h, uint64_t{64});
  h = text::ChainHash(h, uint64_t{64});
  h = text::ChainHash(h, uint64_t{0xD057CA5CADEULL});
  return h;
}

}  // namespace dust::search
