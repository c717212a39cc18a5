// seqlog: a database / Herbrand interpretation (Sections 2.2 and 3.3).
//
// A Database maps predicate ids to relations. The same class represents
// both the extensional database and intermediate interpretations during
// fixpoint computation (an interpretation is any subset of the Herbrand
// base; ours are always finite sets of ground atoms).
//
// Concurrency: a Database is single-writer. Const access (Get, Contains,
// TotalFacts, row scans) is safe from many threads as long as no thread
// mutates the database — which is exactly how published snapshots are
// used (core/snapshot.h): Engine::PublishSnapshot clones the EDB into an
// immutable, shared_ptr-owned copy that readers share.
#ifndef SEQLOG_STORAGE_DATABASE_H_
#define SEQLOG_STORAGE_DATABASE_H_

#include <functional>
#include <memory>
#include <vector>

#include "base/result.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace seqlog {

/// A set of ground atoms, organised per predicate.
class Database {
 public:
  explicit Database(Catalog* catalog) : catalog_(catalog) {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() const { return catalog_; }

  /// Relation for `pred`, created (empty) on first access.
  Relation* GetOrCreate(PredId pred);

  /// Relation for `pred` or nullptr if no fact with that predicate exists.
  const Relation* Get(PredId pred) const;

  /// Inserts the atom pred(tuple...); returns true if new. `pred` must be
  /// registered in the catalog and `tuple` must match its arity (both
  /// CHECKed — use TryInsert for a recoverable Status instead).
  bool Insert(PredId pred, TupleView tuple);

  /// Checked insert: kInvalidArgument when `pred` is not registered in
  /// the catalog or `tuple` does not match its arity; otherwise whether
  /// the atom was new.
  Result<bool> TryInsert(PredId pred, TupleView tuple);

  /// True if the atom is present.
  bool Contains(PredId pred, TupleView tuple) const;

  /// Total number of atoms.
  size_t TotalFacts() const;

  /// Removes every atom (keeps the catalog).
  void Clear();

  /// Copies all atoms of `other` into this database. Fails with
  /// kInvalidArgument (leaving this database partially extended) when a
  /// relation of `other` does not match this catalog's arity for the same
  /// PredId — the tell-tale of mixing databases from different catalogs,
  /// which previously corrupted relations silently.
  Status UnionWith(const Database& other);

  /// Deep copy (same catalog). Used for snapshot publication
  /// (copy-on-publish): the clone is immutable-by-convention afterwards.
  std::unique_ptr<Database> Clone() const;

  /// Merge endpoint of the evaluator's round barrier (eval/engine.cc):
  /// inserts every atom of `src` (same catalog — CHECKed via arity like
  /// Insert) in src's iteration order (predicate id, then scan
  /// position), invoking `on_new` for exactly the atoms that were not
  /// already present. Returns the first non-OK status from `on_new`; the
  /// database then holds everything merged up to and including that
  /// atom, which is fine: callers abort evaluation on error.
  Status MergeFrom(
      const Database& src,
      const std::function<Status(PredId, TupleView)>& on_new);

  /// Ids of predicates that have a (possibly empty) relation.
  std::vector<PredId> PredicatesWithRelations() const;

  /// Per-relation row counts, indexed by PredId: a position in a
  /// database that only grows. A relation never moves or drops a row,
  /// so the rows past a watermark are exactly those inserted since it
  /// was taken (Engine::ClearFacts replaces the database instead).
  using Watermark = std::vector<uint32_t>;

  /// Calls `fn(pred, row)` for every row past `*watermark`, in
  /// predicate-id then scan order, and advances `*watermark` to the end
  /// of every relation. A null `fn` only advances the watermark.
  void ForEachRowPast(
      Watermark* watermark,
      const std::function<void(PredId, TupleView)>& fn) const;

 private:
  Catalog* catalog_;
  std::vector<std::unique_ptr<Relation>> relations_;
};

}  // namespace seqlog

#endif  // SEQLOG_STORAGE_DATABASE_H_
