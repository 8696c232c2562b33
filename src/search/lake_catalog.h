// The lake bookkeeping both search engines share. A data lake keeps
// changing under the engines (tables are removed and added while they
// serve), so TupleSearch and EmbeddingUnionSearch each own one LakeCatalog
// and keep only what they index per table. The catalog holds:
//   - one slot per table ever indexed, with its name, shape and removed
//     flag (removed tables keep their slot, so table ids stay stable)
//   - the mutation counter
#ifndef DUST_SEARCH_LAKE_CATALOG_H_
#define DUST_SEARCH_LAKE_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace dust::search {

class LakeCatalog {
 public:
  /// One indexed lake table.
  struct Slot {
    std::string name;
    size_t num_columns = 0;
    size_t num_rows = 0;
    bool removed = false;
  };

  /// One live slot per table of `lake`; mutation counter zeroed.
  void Reset(const std::vector<const table::Table*>& lake);
  /// Marks slot `t` removed without counting a mutation: the table was
  /// already gone from the state the engine restored.
  void MarkRemoved(size_t t) { slots_[t].removed = true; }

  /// Appends a live slot for `table`; counts a mutation.
  /// InvalidArgument when a live table already carries its name.
  Status Add(const table::Table& table);
  /// Marks the live table named `name` removed and returns its slot; counts
  /// a mutation. NotFound when no live table carries the name.
  Result<size_t> Remove(const std::string& name);

  size_t size() const { return slots_.size(); }
  const Slot& slot(size_t t) const { return slots_[t]; }
  size_t num_live() const;
  /// Add/Remove calls since the last Reset.
  uint64_t mutations() const { return mutations_; }

  /// Chains the live table count, each live table's name, column count and
  /// row count, and then the mutation counter into `h` (text::ChainHash).
  /// The counter keeps every intermediate lake state distinct: removing a
  /// table and re-adding an identical one never restores the old value.
  uint64_t ChainState(uint64_t h) const;

  /// Ids of the live slots, ascending: every table search's candidates.
  std::vector<size_t> LiveTables() const;

 private:
  void Append(const table::Table& table);

  std::vector<Slot> slots_;
  uint64_t mutations_ = 0;
};

/// Chains the retired retrieval-cascade knobs' defaults into `h`, as the
/// pipeline's snapshot hash and TupleSearch::ConfigHash chained the knobs
/// when they existed. Hashes already stored in snapshot headers and cache
/// keys keep their values.
uint64_t ChainRetiredCascadeDefaults(uint64_t h);

}  // namespace dust::search

#endif  // DUST_SEARCH_LAKE_CATALOG_H_
