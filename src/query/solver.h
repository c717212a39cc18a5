// seqlog: goal-directed query answering (demand / magic-set evaluation).
//
// Two entry points:
//
//  * Solver::Solve answers a single goal  ?- p(t1,...,tk).  one-shot: the
//    program is adorned for the goal's bound arguments (adornment.h),
//    rewritten with magic sets (magic.h), compiled, and evaluated with
//    the existing semi-naive machinery into a scratch database. Only
//    facts demanded by the goal are derived; SolveStats reports how many.
//
//  * Solver::Prepare / Solver::Execute split that pipeline for goals that
//    run many times (the paper's point-query workloads): Prepare performs
//    the goal analysis, adornment, magic rewrite and clause compilation
//    ONCE into an immutable PreparedGoal; Execute injects the goal's
//    (possibly re-bound) constants as a magic *seed fact* — data, not a
//    clause — and evaluates the cached program. Execute never parses,
//    never rewrites and never recompiles; it is const and safe to call
//    from many threads against immutable databases (storage/database.h).
//
// Goals may contain `$N` parameter placeholders (parser::ParseGoal);
// their positions adorn as bound and receive values per Execute call.
//
// Goal argument shapes: each argument must be a `$N` parameter, a plain
// variable (free) or a ground term (constants, possibly indexed or
// concatenated — evaluated at prepare time). Repeated variables express
// join constraints: ?- p(X, X). returns only the diagonal.
//
// A goal is refused with kFailedPrecondition when the magic rewrite of a
// strongly safe program is no longer strongly safe (the guard edges
// closed a constructive cycle, Definition 10): evaluating such a rewrite
// could diverge where Evaluate would not, so the goal is not
// demand-evaluable — fall back to Evaluate + Query.
#ifndef SEQLOG_QUERY_SOLVER_H_
#define SEQLOG_QUERY_SOLVER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ast/clause.h"
#include "eval/engine.h"
#include "eval/function_registry.h"
#include "query/adornment.h"
#include "query/magic.h"
#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"
#include "storage/database.h"

namespace seqlog {
namespace query {

struct SolveOptions {
  /// Strategy and budgets for evaluating the rewritten program.
  eval::EvalOptions eval;
};

/// Counters for one Solve call. The speedup-relevant comparison against a
/// full fixpoint is derived_facts (and eval.iterations) versus the same
/// counters of Engine::Evaluate on the original program.
struct SolveStats {
  Adornment goal_adornment;       ///< effective (after bindable demotion)
  size_t adorned_predicates = 0;  ///< reachable adorned IDB predicates
  size_t rewritten_clauses = 0;   ///< clauses in the magic program
  size_t magic_facts = 0;         ///< demand atoms derived (incl. seed)
  size_t derived_facts = 0;       ///< atoms derived beyond the database
  size_t answers = 0;
  eval::EvalStats eval;           ///< the rewritten program's evaluation
};

struct SolveResult {
  Status status;
  /// Answer tuples of the goal predicate (full arity), deduplicated and
  /// sorted; on budget exhaustion the answers derived so far are kept.
  std::vector<std::vector<SeqId>> answers;
  SolveStats stats;
};

/// The reusable product of Solver::Prepare: one goal shape, analysed,
/// rewritten and compiled. Immutable after Prepare — every field is
/// read-only to Execute, which makes concurrent Execute calls safe.
/// Owned by core::PreparedQuery on the public API surface.
struct PreparedGoal {
  ast::Atom goal;
  std::string predicate;
  /// Interned values of the ground (non-parameter) goal arguments.
  std::vector<std::optional<SeqId>> fixed_values;
  /// Per goal position: 0 = not a parameter, else the 1-based `$N` index.
  std::vector<size_t> param_at;
  size_t param_count = 0;
  /// Positions sharing a repeated plain variable (join constraints).
  std::vector<std::vector<size_t>> var_groups;

  /// True when the goal predicate is extensional (no defining clause):
  /// Execute scans the database directly, no rewrite involved.
  bool edb = false;
  PredId edb_pred = 0;

  /// IDB goals: the cached rewrite and its compiled evaluator.
  Adornment goal_adornment;
  MagicProgram magic;
  std::shared_ptr<const eval::Evaluator> evaluator;
  PredId seed_pred = 0;
  PredId answer_pred = 0;
  size_t adorned_predicates = 0;
};

/// One entry of a batched execution: which prepared goal it instantiates
/// (an index into the goal list passed to ExecuteBatch) and the `$N`
/// parameter values for that instance.
struct BatchItem {
  size_t goal = 0;
  std::vector<std::optional<SeqId>> params;
};

/// Result of one ExecuteBatch call. `items[i]` answers `items[i]` of the
/// request in order, each with the exact status/answers an individual
/// Execute of that binding would produce — answer parity is the batch
/// invariant (tests/batch_executor_test.cc). Per-item eval counters are
/// those of the *shared* run that answered the item (rounds are
/// amortised across the batch, so they are not per-item attributable);
/// `eval` aggregates them across runs and `evaluations` counts the
/// semi-naive runs actually performed (1 for a single-goal batch).
struct BatchSolveResult {
  Status status;
  std::vector<SolveResult> items;
  size_t evaluations = 0;
  eval::EvalStats eval;
};

/// Stateless facade over adornment + magic rewrite + evaluation. Shares
/// the engine's catalog/pool/registry so SeqIds and PredIds line up with
/// the extensional database.
class Solver {
 public:
  /// `registry` may be null for pure Sequence Datalog programs.
  Solver(Catalog* catalog, SequencePool* pool,
         const eval::FunctionRegistry* registry);

  /// Analyses `goal` over `program` and compiles its demand rewrite.
  /// Errors: kInvalidArgument (malformed goal, arity/parameter misuse),
  /// kNotFound (unknown extensional predicate), kFailedPrecondition (the
  /// rewrite is not demand-evaluable, see file comment).
  Result<PreparedGoal> Prepare(const ast::Program& program,
                               const ast::Atom& goal) const;

  /// Answers `prepared` over `edb` with `params[i]` bound to `$i+1`.
  /// Performs zero parsing, zero rewriting, zero compilation — only seed
  /// injection, fixpoint evaluation of the cached program, and answer
  /// filtering. kFailedPrecondition if a parameter is unbound. Const and
  /// thread-safe: concurrent Execute calls may share one PreparedGoal as
  /// long as `edb` is not concurrently mutated (use a published
  /// snapshot, core/snapshot.h).
  ///
  /// `base_domain` (optional) is the frozen domain of exactly `edb`'s
  /// sequences — Snapshot publishes the pair — so the run roots only
  /// its seeds and what it derives, never `edb` (eval/engine.h).
  SolveResult Execute(
      const PreparedGoal& prepared, const Database& edb,
      const std::vector<std::optional<SeqId>>& params,
      const SolveOptions& options = {},
      std::shared_ptr<const ExtendedDomain> base_domain = nullptr) const;

  /// One-shot convenience: Prepare + Execute without parameters. Goals
  /// on extensional predicates (no defining clause) are answered
  /// directly from `edb`.
  SolveResult Solve(const ast::Program& program, const ast::Atom& goal,
                    const Database& edb, const SolveOptions& options = {});

  // ------------------------------------------------------------------
  // Batched execution — many bindings, one semi-naive run.
  // ------------------------------------------------------------------

  /// Compiles ONE evaluator that answers every goal of `goals` in a
  /// single run: the union of the goals' magic rewrites, deduplicated
  /// clause-by-clause (goals sharing adorned subgoals contribute each
  /// shared clause once). `symbols` is only used to key the dedup.
  /// Returns null when fewer than two goals carry a rewrite (a single
  /// IDB goal's own cached evaluator already is the fused plan — use
  /// it). kFailedPrecondition when the union closes a constructive
  /// cycle that no individual rewrite has (Definition 10): such goal
  /// sets must fall back to per-goal runs, which ExecuteBatch performs
  /// when `fused` is null.
  Result<std::shared_ptr<const eval::Evaluator>> FuseGoals(
      const std::vector<const PreparedGoal*>& goals,
      const SymbolTable& symbols) const;

  /// Answers every item of `items` (each an instantiation of one goal
  /// in `goals`) with the minimum number of fixpoint runs: all magic
  /// seed facts of the items sharing a run are injected together, the
  /// rounds and the domain growth are paid once for the whole batch,
  /// and the answers are demultiplexed per item from its goal's answer
  /// predicate by the item's bound values. With `fused` non-null (built
  /// by FuseGoals over the same `goals` list) every IDB item shares ONE
  /// run; with `fused` null items are grouped per goal — one run per
  /// distinct goal. EDB goals are answered by direct scans, as in
  /// Execute. Items with unbound parameters or out-of-range goal
  /// indices fail individually (their SolveResult carries the error)
  /// without failing the batch. Const and thread-safe under the same
  /// contract as Execute.
  BatchSolveResult ExecuteBatch(
      const std::vector<const PreparedGoal*>& goals,
      const eval::Evaluator* fused, const Database& edb,
      const std::vector<BatchItem>& items, const SolveOptions& options = {},
      std::shared_ptr<const ExtendedDomain> base_domain = nullptr) const;

 private:
  Catalog* catalog_;
  SequencePool* pool_;
  const eval::FunctionRegistry* registry_;
};

}  // namespace query
}  // namespace seqlog

#endif  // SEQLOG_QUERY_SOLVER_H_
