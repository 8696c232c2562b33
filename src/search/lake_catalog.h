// The lake bookkeeping both search engines share. A data lake keeps
// changing under the engines (tables are removed and added while they
// serve), so TupleSearch and EmbeddingUnionSearch each own one LakeCatalog
// and keep only what they index per table. The catalog holds:
//   - one slot per table ever indexed, with its name, shape and removed
//     flag (removed tables keep their slot, so table ids stay stable)
//   - the mutation counter
//   - the cascade's lake-side signals (per-table type signatures and
//     MinHash value sketches), which it builds, appends, saves and loads
//   - the prefilter and prescreen stages that read those signals, with
//     their query-side wiring
#ifndef DUST_SEARCH_LAKE_CATALOG_H_
#define DUST_SEARCH_LAKE_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "search/cascade/cascade_search.h"
#include "search/cascade/stages.h"
#include "search/minhash.h"
#include "table/table.h"
#include "util/status.h"

namespace dust::io {
class IndexWriter;
class IndexReader;
}  // namespace dust::io

namespace dust::search {

class LakeCatalog {
 public:
  /// One indexed lake table. Slots restored by ResetUnnamed carry no name
  /// and no shape.
  struct Slot {
    std::string name;
    size_t num_columns = 0;
    size_t num_rows = 0;
    bool removed = false;
  };

  /// `config` decides which signals are built and which stages run.
  explicit LakeCatalog(const cascade::CascadeConfig& config);
  // The stages borrow the signal vectors and the config by pointer.
  LakeCatalog(const LakeCatalog&) = delete;
  LakeCatalog& operator=(const LakeCatalog&) = delete;

  /// One live slot per table of `lake`; signals rebuilt, mutation counter
  /// zeroed.
  void Reset(const std::vector<const table::Table*>& lake);
  /// `num_tables` live slots for state restored from a snapshot. Snapshots
  /// carry no table names, so Add and Remove fail with FailedPrecondition
  /// until the next Reset. Signals are left empty for LoadSignals.
  void ResetUnnamed(size_t num_tables);
  /// Marks slot `t` removed without counting a mutation: the table was
  /// already gone from the state the engine restored.
  void MarkRemoved(size_t t) { slots_[t].removed = true; }

  /// Appends a live slot, and its signals, for `table`; counts a mutation.
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

  /// Seeds `set->tables` with the live slots. When the cascade is enabled,
  /// it then runs the prefilter and prescreen stages that are switched on
  /// through the engine's `cascade`, building only the query signals those
  /// stages read. `stats`, when non-null, gets one entry per stage run.
  Status Prefilter(const table::Table& query,
                   const cascade::CascadeSearch& cascade,
                   cascade::CandidateSet* set,
                   std::vector<cascade::StageStats>* stats) const;

  /// Writes the signals (snapshot format v2): a cascade flag byte, then,
  /// when enabled, the signatures and the sketches.
  Status SaveSignals(io::IndexWriter* writer) const;
  /// Reads SaveSignals output for the current slots, rejecting a cascade
  /// flag, count or sketch width that this catalog's config would not
  /// have built.
  Status LoadSignals(io::IndexReader* reader);

 private:
  Status CheckNamed() const;
  /// Appends a live slot for `table` and, when the cascade is enabled, its
  /// signals.
  void Append(const table::Table& table);

  const cascade::CascadeConfig config_;
  std::vector<Slot> slots_;
  bool named_ = true;
  uint64_t mutations_ = 0;
  std::vector<cascade::TableSignature> signatures_;
  std::vector<MinHashSketch> sketches_;
  cascade::TypePrefilterStage prefilter_stage_{&signatures_, &config_};
  cascade::MinHashPrescreenStage prescreen_stage_{&sketches_, &config_};
};

}  // namespace dust::search

#endif  // DUST_SEARCH_LAKE_CATALOG_H_
