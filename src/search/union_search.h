// Table union search interface (SearchTables step of Algorithm 1).
#ifndef DUST_SEARCH_UNION_SEARCH_H_
#define DUST_SEARCH_UNION_SEARCH_H_

#include <string>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace dust::io {
class IndexWriter;
class IndexReader;
}  // namespace dust::io

namespace dust::serve {
class Executor;
}  // namespace dust::serve

namespace dust::search {

struct TableHit {
  size_t table_index = 0;  // index into the lake
  double score = 0.0;      // higher = more unionable
};

/// Finds the top-N data lake tables unionable with a query table.
class UnionSearch {
 public:
  virtual ~UnionSearch() = default;

  /// Indexes the lake once; must be called before SearchTables.
  virtual void IndexLake(const std::vector<const table::Table*>& lake) = 0;

  /// Top-N lake tables by unionability score, descending.
  virtual std::vector<TableHit> SearchTables(const table::Table& query,
                                             size_t n) const = 0;

  virtual std::string name() const = 0;

  /// Persists the state IndexLake built (embeddings, shortlist index) into
  /// an open snapshot writer, so a serving process can LoadState instead of
  /// re-embedding the lake. Engines without an offline/online split keep
  /// the Unimplemented default.
  virtual Status SaveState(io::IndexWriter* writer) const {
    (void)writer;
    return Status::Unimplemented(name() + " does not support snapshots");
  }

  /// Restores SaveState output into a freshly-configured engine; after it
  /// succeeds SearchTables serves as if IndexLake had run.
  virtual Status LoadState(io::IndexReader* reader) {
    (void)reader;
    return Status::Unimplemented(name() + " does not support snapshots");
  }

  /// Routes the engine's internal fan-out (the lake encode and the rerank's
  /// bound pass) through a shared thread pool, so serving processes
  /// create zero threads per query; null means serve::Executor::Default().
  /// Engines without such a pass ignore it. Install during setup, before
  /// concurrent traffic.
  virtual void SetExecutor(serve::Executor* executor) { (void)executor; }
};

}  // namespace dust::search

#endif  // DUST_SEARCH_UNION_SEARCH_H_
