// seqlog: compiled clause plans.
//
// A ClausePlan is a clause whose variables are resolved to dense ids,
// whose terms are compiled (cterm.h), and whose body literals are
// reordered bound-first by a greedy scheduler. For each scheduled literal
// the plan records how every argument is processed:
//
//  * collector  — a plain unbound variable; binds from the matched fact.
//  * key        — evaluable before scanning rows; used for index seeks.
//  * post-check — contains variables bound by collectors of the same
//                 literal; evaluated after binding and compared.
//
// Variables that occur only inside indexed terms (and are not bound
// earlier) cannot be bound by matching; the plan *enumerates* them:
// index variables over [0, lmax+1] and sequence variables over the whole
// extended active domain. This is the operational reading of the paper's
// substitutions "based on the extended active domain" (Definition 1), and
// clauses that need enumeration (or whose head has variables missing from
// the body) are *domain sensitive*: they can derive new facts when the
// domain grows even if no new fact matched, so the semi-naive engine
// re-fires them after domain growth.
#ifndef SEQLOG_EVAL_CLAUSE_PLAN_H_
#define SEQLOG_EVAL_CLAUSE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "ast/clause.h"
#include "base/result.h"
#include "eval/cterm.h"
#include "eval/function_registry.h"
#include "storage/catalog.h"

namespace seqlog {
namespace eval {

/// How one argument of a scheduled predicate literal is handled.
///
/// kInverseSuffix is the inverse-matching fast path for suffix-style
/// indexed terms B[lo:end] where B is otherwise unbound: instead of
/// enumerating the whole domain for B, the matched fact's value v fixes
/// len(B) = len(v) + lo - 1, so only the domain's length bucket is
/// scanned (and each candidate checked by suffix comparison). This is
/// what makes structural recursion a la Example 1.3/1.6 (recursing on
/// X[2:end]) scale with the domain instead of its cube.
enum class ArgMode { kCollector, kKey, kPostCheck, kInverseSuffix };

/// What a clause reads from the extended active domain, in increasing
/// order of cost; a clause that reads it in several ways is classed by
/// the last that applies.
///  * kNone        — every variable is bound by a predicate literal;
///  * kRange       — index variables enumerated over [0, MaxInt()];
///  * kMembership  — an equality binds a variable to a computed value,
///                   which must be a domain member;
///  * kEnumeration — sequence variables enumerated over the domain, or
///                   inverse-suffix candidates drawn from a length
///                   bucket: the only reads that list domain members.
enum class DomainRead { kNone, kRange, kMembership, kEnumeration };

/// One scheduled body literal.
struct LiteralStep {
  enum class Kind { kMatch, kEq, kNeq };
  Kind kind = Kind::kMatch;

  // kMatch:
  PredId pred = 0;
  std::vector<std::unique_ptr<CSeqTerm>> args;  // also kEq/kNeq (2 args)
  std::vector<ArgMode> modes;

  /// Variables enumerated over the domain before matching/comparing.
  std::vector<VarRef> enum_vars;

  /// kEq: 0/1 when that side is a plain unbound variable to bind from
  /// the other side's value; -1 for a pure filter.
  int bind_side = -1;

  /// Position of this literal in the original clause body.
  size_t source_index = 0;
};

/// A fully compiled clause.
struct ClausePlan {
  ast::Clause source;  ///< keeps shared term trees alive

  PredId head_pred = 0;
  std::vector<std::unique_ptr<CSeqTerm>> head_args;
  /// Head variables not bound by the body (the unguarded ones);
  /// enumerated over the domain when deriving.
  std::vector<VarRef> head_enum_vars;

  std::vector<LiteralStep> steps;  ///< scheduled body
  std::vector<size_t> match_steps;  ///< indices of kMatch steps

  size_t num_seq_vars = 0;
  size_t num_idx_vars = 0;
  std::vector<std::string> seq_var_names;  ///< id -> name (diagnostics)
  std::vector<std::string> idx_var_names;

  /// What firing the clause reads from the domain. Any read other than
  /// kNone makes the clause domain-sensitive: it can derive new facts
  /// from domain growth alone, so semi-naive rounds re-fire it in full
  /// whenever the domain grew.
  DomainRead domain_read = DomainRead::kNone;

  /// True if the head contains ++ or @T terms (constructive clause).
  bool constructive = false;
};

/// Compiles `clause`. Registers predicates in `catalog` and resolves
/// @T names through `registry` (checking arities).
Result<ClausePlan> CompileClause(const ast::Clause& clause,
                                 Catalog* catalog,
                                 const FunctionRegistry* registry);

/// Human-readable rendering of the schedule (for tests and EXPLAIN-style
/// debugging).
std::string DebugString(const ClausePlan& plan, const Catalog& catalog);

}  // namespace eval
}  // namespace seqlog

#endif  // SEQLOG_EVAL_CLAUSE_PLAN_H_
