#include "storage/relation.h"

#include <algorithm>

namespace seqlog {

Relation::Relation(size_t arity) : arity_(arity), col_index_(arity) {}

void Relation::Reserve(size_t rows) {
  const size_t total = size_ + rows;
  rows_.reserve(total * arity_);
  dedup_.reserve(total);
  for (auto& index : col_index_) index.reserve(total);
}

bool Relation::Insert(TupleView tuple) {
  SEQLOG_CHECK(tuple.size() == arity_)
      << "tuple arity " << tuple.size() << " != relation arity " << arity_;
  auto& bucket = dedup_[HashSpan(tuple)];
  for (RowId pos : bucket) {
    TupleView existing = RowAt(pos);
    if (std::equal(existing.begin(), existing.end(), tuple.begin())) {
      return false;
    }
  }
  SEQLOG_CHECK(size_ < UINT32_MAX)
      << "relation overflow: " << size_ << " rows";
  const RowId pos = static_cast<RowId>(size_++);
  rows_.insert(rows_.end(), tuple.begin(), tuple.end());
  bucket.push_back(pos);
  for (size_t c = 0; c < arity_; ++c) {
    col_index_[c][tuple[c]].push_back(pos);
  }
  return true;
}

bool Relation::Contains(TupleView tuple) const {
  if (tuple.size() != arity_) return false;
  auto it = dedup_.find(HashSpan(tuple));
  if (it == dedup_.end()) return false;
  for (RowId pos : it->second) {
    TupleView existing = RowAt(pos);
    if (std::equal(existing.begin(), existing.end(), tuple.begin())) {
      return true;
    }
  }
  return false;
}

std::span<const RowId> Relation::RowsWithValue(size_t col,
                                               SeqId value) const {
  SEQLOG_DCHECK(col < arity_);
  auto it = col_index_[col].find(value);
  if (it == col_index_[col].end()) return {};
  return it->second;
}

void Relation::Clear() {
  size_ = 0;
  rows_.clear();
  dedup_.clear();
  for (auto& index : col_index_) index.clear();
}

}  // namespace seqlog
