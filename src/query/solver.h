// seqlog: goal-directed query answering (demand / magic-set evaluation).
//
// Solver::Prepare analyses a goal  ?- p(t1,...,tk).  once: the program is
// adorned for the goal's bound arguments (adornment.h), rewritten with
// magic sets (magic.h) and compiled into an immutable PreparedGoal.
// Solver::Execute is the one way to run it: for a list of bindings it
// injects one magic *seed fact* per binding — data, not a clause —
// evaluates the cached rewrite ONCE with the existing semi-naive
// machinery into a scratch database, and filters each binding's answers
// from the goal's answer predicate. Only facts demanded by the goal are
// derived; SolveStats reports how many. Execute never parses, never
// rewrites and never recompiles; it is const and safe to call from many
// threads against immutable databases (storage/database.h).
//
// Goals may contain `$N` parameter placeholders (parser::ParseGoal);
// their positions adorn as bound and receive values per binding.
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
#include <span>
#include <string>
#include <vector>

#include "ast/clause.h"
#include "eval/engine.h"
#include "eval/function_registry.h"
#include "query/adornment.h"
#include "query/magic.h"
#include "sequence/sequence_pool.h"
#include "storage/database.h"

namespace seqlog {
namespace query {

struct SolveOptions {
  /// Strategy and budgets for evaluating the rewritten program.
  eval::EvalOptions eval;
};

/// Counters for one answered binding. The speedup-relevant comparison
/// against a full fixpoint is derived_facts (and eval.iterations) versus
/// the same counters of Engine::Evaluate on the original program. A run
/// serves all bindings of one Execute call at once, so the run counters
/// (derived_facts, magic_facts, eval) are the shared run's.
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
  /// The rewrite's magic predicates, for the magic_facts counter.
  std::vector<PredId> magic_preds;
  size_t adorned_predicates = 0;
};

/// Values for a goal's `$N` parameters: `binding[k]` binds `$k+1`.
using Binding = std::vector<std::optional<SeqId>>;

/// Result of one Execute call: `items[i]` answers `bindings[i]`, each
/// with the status and answers a call with that binding alone would
/// produce — answer parity holds as stated in docs/SERVING.md.
struct BatchSolveResult {
  /// The run's status: OK when no run was needed; a budget error keeps
  /// the partial answers in the items.
  Status status;
  std::vector<SolveResult> items;
  /// Semi-naive runs performed: 1, or 0 when the goal is extensional or
  /// no binding resolved.
  size_t evaluations = 0;
};

/// Stateless facade over adornment + magic rewrite + evaluation. Shares
/// the engine's catalog/pool/registry so SeqIds and PredIds line up with
/// the extensional database.
class Solver {
 public:
  /// `registry` may be null for pure Sequence Datalog programs.
  Solver(Catalog* catalog, SequencePool* pool,
         const eval::FunctionRegistry* registry)
      : catalog_(catalog), pool_(pool), registry_(registry) {}

  /// Analyses `goal` over `program` and compiles its demand rewrite.
  /// Errors: kInvalidArgument (malformed goal, arity/parameter misuse),
  /// kNotFound (unknown extensional predicate), kFailedPrecondition (the
  /// rewrite is not demand-evaluable, see file comment).
  Result<PreparedGoal> Prepare(const ast::Program& program,
                               const ast::Atom& goal) const;

  /// Answers `prepared` over `edb` for every binding in ONE fixpoint
  /// run: the seed facts of all bindings are injected together (equal
  /// bindings collapse to one seed — relations are sets), the rounds are
  /// paid once, and each binding's answers are the answer-predicate
  /// tuples matching its bound values. Performs zero parsing, zero
  /// rewriting, zero compilation. A binding with an unbound parameter
  /// fails alone (kFailedPrecondition) without failing the others.
  /// Extensional goals are answered by scanning `edb`. Const and
  /// thread-safe: concurrent calls may share one PreparedGoal as long as
  /// `edb` is not concurrently mutated (use a published snapshot,
  /// core/snapshot.h).
  ///
  /// `base_domain` (optional) is the frozen domain of exactly `edb`'s
  /// sequences — Snapshot publishes the pair — so the run roots only
  /// what it derives, never `edb` (eval/engine.h).
  BatchSolveResult Execute(
      const PreparedGoal& prepared, const Database& edb,
      std::span<const Binding> bindings, const SolveOptions& options = {},
      std::shared_ptr<const ExtendedDomain> base_domain = nullptr) const;

 private:
  Catalog* catalog_;
  SequencePool* pool_;
  const eval::FunctionRegistry* registry_;
};

}  // namespace query
}  // namespace seqlog

#endif  // SEQLOG_QUERY_SOLVER_H_
