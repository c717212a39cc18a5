#include "ivm/incremental_model.h"

namespace seqlog {
namespace ivm {

eval::EvalOutcome IncrementalModel::Build(const Database& edb,
                                          const eval::EvalOptions& options) {
  model_ = std::make_unique<Database>(catalog_);
  domain_.reset();
  absorbed_.clear();
  edb.ForEachRowPast(&absorbed_, nullptr);
  eval::EvalOutcome outcome = evaluator_->Evaluate(
      edb, /*extra_facts=*/nullptr, /*base_domain=*/nullptr, options,
      model_.get(), &domain_);
  built_ = outcome.status.ok() && domain_ != nullptr;
  return outcome;
}

eval::EvalOutcome IncrementalModel::Apply(const Database& edb,
                                          const eval::EvalOptions& options) {
  eval::EvalOutcome outcome;
  if (!built_) {
    outcome.status = Status::FailedPrecondition(
        "no saturated model to extend; Build first");
    return outcome;
  }
  outcome = evaluator_->Resaturate(model_.get(), domain_.get(), edb,
                                   &absorbed_, options);
  // A failed resaturation leaves the model between two fixpoints —
  // a state no future delta can repair incrementally.
  if (!outcome.status.ok()) built_ = false;
  return outcome;
}

void IncrementalModel::Invalidate() {
  model_.reset();
  domain_.reset();
  absorbed_.clear();
  built_ = false;
}

}  // namespace ivm
}  // namespace seqlog
