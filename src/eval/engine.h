// seqlog: bottom-up fixpoint evaluation (Section 3.3).
//
// Three strategies compute lfp(T_{P,db}) = T_{P,db} ^ omega:
//
//  * kNaive      — executable definition of the T-operator: every clause
//                  is fired fully each iteration. Used as a test oracle.
//  * kSemiNaive  — production path: after the first iteration a clause
//                  fires once per body predicate literal with that
//                  literal restricted to the previous iteration's new
//                  facts; clauses that read the domain (domain
//                  sensitive: ClausePlan::domain_read is not kNone)
//                  additionally re-fire fully whenever the extended
//                  active domain grew.
//  * kStratified — the Theorem 8 strategy for strongly safe programs:
//                  strata in dependency-graph order, constructive rules
//                  applied once per stratum, non-constructive rules
//                  saturated semi-naively.
//
// All strategies are budgeted (Theorem 2: finiteness is undecidable);
// divergent programs such as Example 1.6 end with kResourceExhausted and
// partial results left in the model for inspection.
//
// Evaluation is single-threaded: a round fires its clauses into one
// scratch database and merges it into the model at the round barrier
// (Database::MergeFrom), which also grows the extended active domain.
// Concurrency lives above the evaluator: Evaluate is const, so many
// threads may evaluate one compiled program at once, each into its own
// model (docs/CONCURRENCY.md).
#ifndef SEQLOG_EVAL_ENGINE_H_
#define SEQLOG_EVAL_ENGINE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/clause.h"
#include "eval/clause_plan.h"
#include "eval/executor.h"
#include "eval/function_registry.h"
#include "sequence/domain.h"
#include "storage/database.h"

namespace seqlog {
namespace eval {

enum class Strategy { kNaive, kSemiNaive, kStratified };

struct EvalOptions {
  Strategy strategy = Strategy::kSemiNaive;
  EvalLimits limits;
  /// Record (facts, domain) after every iteration into stats.growth.
  bool track_growth = false;
  /// Ignored: evaluation is single-threaded. Kept so existing callers
  /// that set it still compile.
  size_t num_threads = 0;
};

/// Status plus statistics; stats are valid even when status is an error
/// (budget exhaustion leaves partial results in the model).
struct EvalOutcome {
  Status status;
  EvalStats stats;
};

/// Compiles a program once and evaluates it over databases.
///
/// Evaluation is const: once SetProgram has compiled the plans, one
/// Evaluator may serve many concurrent Evaluate calls (each with its own
/// model database), which is how prepared queries execute the cached
/// magic rewrite from many threads (core/prepared_query.h).
class Evaluator {
 public:
  /// `registry` may be null for pure Sequence Datalog programs.
  Evaluator(Catalog* catalog, SequencePool* pool,
            const FunctionRegistry* registry);

  /// Compiles `program`; replaces any previous program. Facts of the
  /// `demand` predicates (a magic rewrite's magic predicates,
  /// query/magic.h) join the model but never root the extended active
  /// domain: they carry goal values, which are not data (Definition 3).
  /// Not safe to call concurrently with Evaluate.
  Status SetProgram(const ast::Program& program,
                    const std::set<std::string>& demand = {});

  const ast::Program& program() const { return program_; }
  const std::vector<ClausePlan>& plans() const { return plans_; }

  /// Computes the least fixpoint of the program over `edb` into `model`
  /// (which must be empty and share the evaluator's catalog). On return
  /// `model` holds T^omega (or a budget-truncated prefix of it).
  EvalOutcome Evaluate(const Database& edb, const EvalOptions& options,
                       Database* model) const;

  /// Same, additionally loading the atoms of `extra_facts` (may be null)
  /// into the starting interpretation alongside `edb` — how goal seeds
  /// reach a prepared magic program without rewriting it: the seed is
  /// data, not a clause (query/solver.h) — and layering the run's
  /// extended active domain on a frozen `base_domain` (may be null).
  /// The base MUST be the domain of exactly `edb`'s sequences
  /// (core/snapshot.h publishes such a pair; debug builds check it): the
  /// run then closes only `extra_facts` (demand facts excepted) and the
  /// sequences it derives, never the database itself.
  EvalOutcome Evaluate(const Database& edb, const Database* extra_facts,
                       std::shared_ptr<const ExtendedDomain> base_domain,
                       const EvalOptions& options, Database* model,
                       std::unique_ptr<ExtendedDomain>* domain_out) const;

  EvalOutcome Evaluate(const Database& edb, const Database* extra_facts,
                       std::shared_ptr<const ExtendedDomain> base_domain,
                       const EvalOptions& options, Database* model) const;

  /// Incremental re-saturation (the live-ingest entry point, src/ivm/):
  /// `model` must hold the least fixpoint of the current program over
  /// the rows of `edb` before `*absorbed`, and `domain` must be the
  /// extended active domain of that run (keep both via the `domain_out`
  /// Evaluate overload). The rows of `edb` past `*absorbed` are seeded
  /// as a round-0 delta — rows already in the model are dropped, new
  /// argument sequences close into the domain exactly like an EDB load —
  /// and `*absorbed` advances past them. Then the same semi-naive rounds
  /// re-run until the fixpoint: delta firings per body literal, full
  /// re-fires of domain-sensitive clauses while the domain grows, the
  /// same round barrier as a cold run. Because the T-operator is
  /// monotone for insert-only deltas, the result equals a cold Evaluate
  /// over all of `edb` (property-tested bit-identically,
  /// tests/ivm_test.cc); retractions are NOT supported — callers must
  /// cold-recompute instead (EvalStats::cold_fallback).
  ///
  /// Always runs the flat semi-naive loop regardless of
  /// options.strategy: re-applying rules to an already-saturated model
  /// is sound and complete for any set between the old and the new
  /// fixpoint. Fills EvalStats::resaturate_rounds / resaturate_millis /
  /// ingested_facts. On a budget error the model holds a partial
  /// extension (supersets the old fixpoint) — callers should treat it as
  /// poisoned and rebuild cold.
  EvalOutcome Resaturate(Database* model, ExtendedDomain* domain,
                         const Database& edb, Database::Watermark* absorbed,
                         const EvalOptions& options) const;

 private:
  struct RunState;
  /// One clause firing of a round: plan index and delta literal
  /// (kNoDelta for a full firing).
  struct FireTask;

  Status InitState(const Database& edb, const Database* extra_facts,
                   std::shared_ptr<const ExtendedDomain> base_domain,
                   const EvalOptions& options, Database* model,
                   RunState* state) const;
  /// Loads every atom of `db` into the model and delta, then, if
  /// `close`, closes the argument sequences of all but demand facts into
  /// the domain; otherwise the domain must already hold them.
  Status LoadFacts(const Database& db, bool close, RunState* state) const;
  /// One least-fixpoint loop over the given clause subset; shared by all
  /// strategies. `first_full` forces a full firing pass first — cold
  /// runs need it (the round-0 delta alone misses empty-body clauses);
  /// Resaturate starts from an already-saturated model and skips it.
  Status Saturate(const std::vector<size_t>& subset, bool naive,
                  bool first_full, RunState* state) const;
  Status FireSubsetOnce(const std::vector<size_t>& subset,
                        RunState* state) const;
  /// Bumps the iteration counter and enforces the iteration and wall-time
  /// budgets. Called once per fixpoint round.
  Status CheckIterationBudget(RunState* state) const;
  /// Fires one round's tasks, in order, into the run's scratch database,
  /// then merges it (MergeRound).
  Status FireRound(const std::vector<FireTask>& tasks,
                   RunState* state) const;
  /// Merges the scratch database into the model, refreshing delta,
  /// domain and growth stats.
  Status MergeRound(RunState* state) const;

  /// False for the `demand` predicates of SetProgram.
  bool RootsDomain(PredId pred) const {
    return pred >= demand_.size() || !demand_[pred];
  }

  Status EvaluateFlat(const EvalOptions& options, RunState* state) const;
  Status EvaluateStratified(const EvalOptions& options,
                            RunState* state) const;

  Catalog* catalog_;
  SequencePool* pool_;
  const FunctionRegistry* registry_;
  ast::Program program_;
  std::vector<ClausePlan> plans_;
  /// Indexed by PredId: true for the demand predicates of SetProgram.
  std::vector<bool> demand_;
};

}  // namespace eval
}  // namespace seqlog

#endif  // SEQLOG_EVAL_ENGINE_H_
