// seqlog: cursor-style query results.
//
// ResultSet is the answer container of the prepared/snapshot query API
// (core/prepared_query.h): raw SeqId tuples plus the solve status and
// stats, with *on-demand* rendering — nothing is stringified until a
// caller asks for a Value. Materialize() renders everything eagerly
// (rows lexicographically sorted, the shape of Engine::Query) for
// display and tests.
//
// Lifetimes (Engine ⊃ Snapshot ⊃ ResultSet): a ResultSet borrows the
// engine's pool and symbol table for rendering and pins the snapshot it
// was computed from, so it must not outlive the Engine — but it may
// outlive the Snapshot object it was executed against (the underlying
// database is shared_ptr-owned). Rows and Values borrow from their
// ResultSet and must not outlive it.
//
// Thread-safety: a ResultSet is immutable after construction; concurrent
// reads (iteration, rendering) are safe.
#ifndef SEQLOG_CORE_RESULT_SET_H_
#define SEQLOG_CORE_RESULT_SET_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "query/solver.h"
#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"
#include "storage/database.h"

namespace seqlog {

class ResultSet;
class Row;

/// One answer cell: an interned sequence, rendered only on request.
class Value {
 public:
  SeqId id() const { return id_; }
  /// Number of symbols in the sequence.
  size_t Length() const;
  /// Renders via the engine's symbol table (Render semantics: single
  /// character symbols concatenated, longer names in <...>).
  std::string Render() const;

 private:
  friend class Row;
  Value(SeqId id, const SequencePool* pool, const SymbolTable* symbols)
      : id_(id), pool_(pool), symbols_(symbols) {}

  SeqId id_;
  const SequencePool* pool_;
  const SymbolTable* symbols_;
};

/// One answer tuple; a lightweight view into its ResultSet.
class Row {
 public:
  size_t size() const;
  Value value(size_t j) const;
  Value operator[](size_t j) const { return value(j); }
  /// The raw interned tuple.
  TupleView ids() const;
  /// Renders every cell (convenience for display paths).
  std::vector<std::string> Render() const;

 private:
  friend class ResultSet;
  Row(const ResultSet* set, size_t index) : set_(set), index_(index) {}

  const ResultSet* set_;
  size_t index_;
};

/// The answers of one executed binding: status + stats + raw tuples.
class ResultSet {
 public:
  /// An empty, OK result (arity 0, no rows).
  ResultSet() = default;

  ResultSet(ResultSet&&) = default;
  ResultSet& operator=(ResultSet&&) = default;
  ResultSet(const ResultSet&) = default;
  ResultSet& operator=(const ResultSet&) = default;

  /// Status of the solve that produced this set. On budget exhaustion
  /// (kResourceExhausted) the rows derived so far are kept.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }
  /// Demand-evaluation counters of the producing Execute call.
  const query::SolveStats& stats() const { return stats_; }

  /// Number of answer rows. Nullary goals (arity 0) have one empty row
  /// when the goal holds, so the count is tracked, not derived.
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t arity() const { return arity_; }

  Row row(size_t i) const { return Row(this, i); }
  Row operator[](size_t i) const { return Row(this, i); }
  /// Raw interned tuple of row `i`.
  TupleView ids(size_t i) const {
    return TupleView(flat_.data() + i * arity_, arity_);
  }

  /// Forward iteration over Rows (enables range-for).
  class const_iterator {
   public:
    using value_type = Row;
    using difference_type = std::ptrdiff_t;

    Row operator*() const { return Row(set_, index_); }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    bool operator==(const const_iterator& o) const {
      return set_ == o.set_ && index_ == o.index_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    friend class ResultSet;
    const_iterator(const ResultSet* set, size_t index)
        : set_(set), index_(index) {}
    const ResultSet* set_;
    size_t index_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  /// Eager materialization: every row rendered, rows sorted
  /// lexicographically — exactly the shape of Engine::Query. Costs one
  /// string per cell; prefer the cursor on hot paths.
  std::vector<std::vector<std::string>> Materialize() const;

 private:
  friend class PreparedQuery;
  friend class Row;
  friend class Value;

  /// Takes ownership of the solve result's tuples; `keepalive` pins the
  /// snapshot the result was computed from (may be null for live-EDB
  /// executions).
  ResultSet(query::SolveResult result, size_t arity,
            const SequencePool* pool, const SymbolTable* symbols,
            std::shared_ptr<const Database> keepalive);
  /// An error result with no rows.
  explicit ResultSet(Status status) : status_(std::move(status)) {}

  Status status_;
  query::SolveStats stats_;
  size_t arity_ = 0;
  size_t rows_ = 0;
  std::vector<SeqId> flat_;  ///< row-major answer tuples
  const SequencePool* pool_ = nullptr;
  const SymbolTable* symbols_ = nullptr;
  std::shared_ptr<const Database> snapshot_;  ///< keep-alive
};

}  // namespace seqlog

#endif  // SEQLOG_CORE_RESULT_SET_H_
