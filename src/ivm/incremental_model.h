// seqlog: a saturated model that catches up with an insert-only EDB.
//
// IncrementalModel pairs an evaluated Database with the ExtendedDomain
// of the run that produced it — the pairing Evaluator::Resaturate needs
// and the one thing a cold Engine::Evaluate used to throw away — and
// records, per relation, how many EDB rows the model has absorbed (a
// row watermark). Build runs the cold fixpoint and keeps all three;
// Apply seeds the EDB rows past the watermark as a round-0 delta and
// re-runs the semi-naive rounds in place, which is sound for
// insert-only deltas because the T-operator is monotone (lfp(D u B) is
// reachable by saturating from lfp(D) u B). Facts are append-only until
// Engine::ClearFacts replaces the EDB; retractions are NOT expressible
// as deltas — callers Invalidate and Build cold instead (the Engine
// does, flagging EvalStats::cold_fallback).
//
// Concurrency contract (docs/CONCURRENCY.md): single-writer, like the
// Database it wraps. One thread at a time may call
// Build/Apply/Invalidate; model() readers must not overlap a writer.
// Nothing in the serving tier touches the model: servers answer from
// published snapshots of the EDB.
#ifndef SEQLOG_IVM_INCREMENTAL_MODEL_H_
#define SEQLOG_IVM_INCREMENTAL_MODEL_H_

#include <memory>

#include "eval/engine.h"
#include "sequence/domain.h"
#include "storage/database.h"

namespace seqlog {
namespace ivm {

class IncrementalModel {
 public:
  /// `evaluator` and `catalog` must outlive this object (Engine owns all
  /// three).
  IncrementalModel(const eval::Evaluator* evaluator, Catalog* catalog)
      : evaluator_(evaluator), catalog_(catalog) {}

  /// Cold fixpoint over `edb`; replaces any previous model, retains the
  /// run's domain and marks every row of `edb` absorbed. On a budget
  /// error the partial model is kept for inspection (model() returns
  /// it) but the pair is not Apply-able: built() stays false.
  eval::EvalOutcome Build(const Database& edb,
                          const eval::EvalOptions& options);

  /// Incremental re-saturation: seeds the rows of `edb` past the
  /// watermark (rows already in the model dropped) as a round-0 delta
  /// and re-runs the semi-naive rounds until the new fixpoint —
  /// identical to a cold Build over `edb`, without re-deriving the old
  /// model. `edb` must be the database of the last Build, grown only by
  /// inserts since. kFailedPrecondition unless built(). On error the
  /// model is poisoned (partially extended) and built() drops to false;
  /// rebuild cold.
  eval::EvalOutcome Apply(const Database& edb,
                          const eval::EvalOptions& options);

  /// Drops the model and domain (program change, retraction).
  void Invalidate();

  /// True when model() and the domain form a valid saturated pair that
  /// Apply may extend.
  bool built() const { return built_; }

  /// The computed interpretation, or null before the first Build /
  /// after Invalidate. Non-null after a failed Build (partial results,
  /// same contract as Engine::Evaluate always had).
  const Database* model() const { return model_.get(); }

  /// The paired extended active domain (null whenever !built()).
  const ExtendedDomain* domain() const {
    return built_ ? domain_.get() : nullptr;
  }

 private:
  const eval::Evaluator* evaluator_;
  Catalog* catalog_;
  std::unique_ptr<Database> model_;
  std::unique_ptr<ExtendedDomain> domain_;
  /// EDB rows the model has absorbed, per relation.
  Database::Watermark absorbed_;
  bool built_ = false;
};

}  // namespace ivm
}  // namespace seqlog

#endif  // SEQLOG_IVM_INCREMENTAL_MODEL_H_
