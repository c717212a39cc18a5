#include "storage/database.h"

#include "base/string_util.h"

namespace seqlog {

Relation* Database::GetOrCreate(PredId pred) {
  SEQLOG_CHECK(pred < catalog_->size())
      << "predicate id " << pred << " is not in the catalog";
  if (pred >= relations_.size()) {
    relations_.resize(pred + 1);
  }
  if (relations_[pred] == nullptr) {
    relations_[pred] = std::make_unique<Relation>(catalog_->Arity(pred));
  }
  return relations_[pred].get();
}

const Relation* Database::Get(PredId pred) const {
  if (pred >= relations_.size()) return nullptr;
  return relations_[pred].get();
}

bool Database::Insert(PredId pred, TupleView tuple) {
  Relation* rel = GetOrCreate(pred);
  SEQLOG_CHECK(tuple.size() == rel->arity())
      << "tuple arity " << tuple.size() << " != arity " << rel->arity()
      << " of predicate '" << catalog_->Name(pred) << "'";
  return rel->Insert(tuple);
}

Result<bool> Database::TryInsert(PredId pred, TupleView tuple) {
  if (pred >= catalog_->size()) {
    return Status::InvalidArgument(
        StrCat("predicate id ", pred, " is not in the catalog (",
               catalog_->size(), " predicates registered)"));
  }
  const size_t arity = catalog_->Arity(pred);
  if (tuple.size() != arity) {
    return Status::InvalidArgument(
        StrCat("tuple arity ", tuple.size(), " != arity ", arity,
               " of predicate '", catalog_->Name(pred), "'"));
  }
  return GetOrCreate(pred)->Insert(tuple);
}

bool Database::Contains(PredId pred, TupleView tuple) const {
  const Relation* rel = Get(pred);
  return rel != nullptr && rel->Contains(tuple);
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (const auto& rel : relations_) {
    if (rel != nullptr) total += rel->size();
  }
  return total;
}

void Database::Clear() {
  for (auto& rel : relations_) {
    if (rel != nullptr) rel->Clear();
  }
}

Status Database::UnionWith(const Database& other) {
  for (PredId pred : other.PredicatesWithRelations()) {
    const Relation* rel = other.Get(pred);
    if (rel->empty()) continue;
    if (pred >= catalog_->size()) {
      return Status::InvalidArgument(
          StrCat("UnionWith: predicate id ", pred,
                 " is not in this catalog (databases from different "
                 "catalogs cannot be merged)"));
    }
    if (rel->arity() != catalog_->Arity(pred)) {
      return Status::InvalidArgument(
          StrCat("UnionWith: relation arity ", rel->arity(), " != arity ",
                 catalog_->Arity(pred), " of predicate '",
                 catalog_->Name(pred),
                 "' (databases from different catalogs cannot be merged)"));
    }
    Relation* target = GetOrCreate(pred);
    target->Reserve(rel->size());
    for (uint32_t i = 0; i < rel->size(); ++i) {
      target->Insert(rel->RowAt(i));
    }
  }
  return Status::Ok();
}

Status Database::MergeFrom(
    const Database& src,
    const std::function<Status(PredId, TupleView)>& on_new) {
  for (PredId pred : src.PredicatesWithRelations()) {
    const Relation* rel = src.Get(pred);
    if (rel->empty()) continue;
    Relation* target = GetOrCreate(pred);
    SEQLOG_CHECK(target->arity() == rel->arity())
        << "MergeFrom across catalogs: arity " << rel->arity() << " != "
        << target->arity() << " for predicate '" << catalog_->Name(pred)
        << "'";
    // Sizing the destination for the incoming rows up front keeps the
    // hash indexes from rehashing once per growth step.
    target->Reserve(rel->size());
    for (uint32_t i = 0; i < rel->size(); ++i) {
      TupleView row = rel->RowAt(i);
      if (!target->Insert(row)) continue;
      SEQLOG_RETURN_IF_ERROR(on_new(pred, row));
    }
  }
  return Status::Ok();
}

std::unique_ptr<Database> Database::Clone() const {
  auto copy = std::make_unique<Database>(catalog_);
  // Same catalog: UnionWith cannot fail.
  Status s = copy->UnionWith(*this);
  SEQLOG_CHECK(s.ok()) << s.ToString();
  return copy;
}

std::vector<PredId> Database::PredicatesWithRelations() const {
  std::vector<PredId> out;
  for (PredId p = 0; p < relations_.size(); ++p) {
    if (relations_[p] != nullptr) out.push_back(p);
  }
  return out;
}

void Database::ForEachRowPast(
    Watermark* watermark,
    const std::function<void(PredId, TupleView)>& fn) const {
  if (watermark->size() < relations_.size()) {
    watermark->resize(relations_.size(), 0);
  }
  for (PredId pred = 0; pred < relations_.size(); ++pred) {
    const Relation* rel = relations_[pred].get();
    if (rel == nullptr) continue;
    for (uint32_t i = (*watermark)[pred]; fn && i < rel->size(); ++i) {
      fn(pred, rel->RowAt(i));
    }
    (*watermark)[pred] = static_cast<uint32_t>(rel->size());
  }
}

}  // namespace seqlog
