// seqlog: relations of sequence tuples.
//
// A relation of arity k is a duplicate-free set of k-tuples of SeqIds
// (Section 2.2: finite subsets of the k-fold product of Sigma*). Rows
// live in one flattened row-major vector in insertion order, next to a
// dedup table and one hash index per column. A row's RowId is its scan
// position, so positional iteration, index probes and snapshot
// watermarks all see the same append-only order.
#ifndef SEQLOG_STORAGE_RELATION_H_
#define SEQLOG_STORAGE_RELATION_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/logging.h"
#include "sequence/sequence_pool.h"

namespace seqlog {

/// Tuple view into a relation's row storage.
using TupleView = std::span<const SeqId>;

/// A row's scan position inside its relation.
using RowId = uint32_t;

/// A set of SeqId tuples with per-column hash indexes, scanned in
/// insertion order.
class Relation {
 public:
  explicit Relation(size_t arity);
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  size_t arity() const { return arity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes row storage and hash indexes for `rows` more tuples.
  /// Never shrinks; contents are unchanged.
  void Reserve(size_t rows);

  /// Inserts `tuple`; returns true if it was not already present.
  /// Single-writer (no locking).
  bool Insert(TupleView tuple);

  /// True if `tuple` is present.
  bool Contains(TupleView tuple) const;

  /// Returns the row at scan position `pos` (0 <= pos < size()).
  /// Positions are stable and append-only.
  TupleView RowAt(RowId pos) const {
    SEQLOG_DCHECK(pos < size_);
    return TupleView(rows_.data() + static_cast<size_t>(pos) * arity_,
                     arity_);
  }

  /// Positions of the rows whose column `col` equals `value`, ascending.
  /// Invalidated by any insert into the relation.
  std::span<const RowId> RowsWithValue(size_t col, SeqId value) const;

  /// Removes all tuples (keeps arity). Used for delta swapping.
  void Clear();

 private:
  size_t arity_;
  size_t size_ = 0;
  std::vector<SeqId> rows_;  // flattened row-major
  // Dedup: tuple hash -> candidate positions (chaining on collisions).
  std::unordered_map<size_t, std::vector<RowId>> dedup_;
  // Column indexes: for each column, value -> positions.
  std::vector<std::unordered_map<SeqId, std::vector<RowId>>> col_index_;
};

}  // namespace seqlog

#endif  // SEQLOG_STORAGE_RELATION_H_
