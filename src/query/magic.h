// seqlog: the magic-set rewrite (demand transformation).
//
// MagicRewrite turns an adorned, goal-reachable program slice into a new
// program whose bottom-up fixpoint derives only goal-relevant facts:
//
//  * the goal's values arrive as data: the caller inserts one *seed fact*
//    magic__p__a(c1,...,cm) per binding — the values at the bound
//    positions of the goal adornment — so one rewrite serves every
//    binding of the same goal shape (core/prepared_query.h);
//  * every adorned clause p^a gets a *guard*: its head is renamed to
//    p__a and  magic__p__a(<head terms at bound positions>)  is prepended
//    to the body, so the clause only fires for demanded bindings;
//  * for every IDB body literal q^b a *magic propagation clause*
//      magic__q__b(<q's bound args>) :- guard, <literals before q>.
//    pushes demand sideways through the clause;
//  * every reachable adorned predicate gets an *import* clause
//    p__a(V1,...,Vk) :- magic__p__a(...), p(V1,...,Vk).  so it also
//    sees facts stored under its original name — including facts added
//    after the rewrite, which a prepared goal answers over later
//    snapshots.
//
// The rewritten program is ordinary Sequence/Transducer Datalog: it is
// validated by ast::Validate and evaluated by the unmodified semi-naive
// engine. Magic heads only ever copy non-constructive terms (bindable
// positions exclude ++/@T), so the rewrite never adds constructive
// clauses — but the new guard edges can still close a constructive cycle
// that the original program did not have; the solver re-runs the
// Definition 10 check on the result and refuses such goals.
#ifndef SEQLOG_QUERY_MAGIC_H_
#define SEQLOG_QUERY_MAGIC_H_

#include <set>
#include <string>
#include <vector>

#include "ast/clause.h"
#include "base/result.h"
#include "query/adornment.h"

namespace seqlog {
namespace query {

/// Name of the adorned copy of `predicate` ("p__bf"). Nullary predicates
/// have an empty adornment ("p__").
std::string AdornedName(const std::string& predicate,
                        const Adornment& adornment);

/// Name of the magic (demand) predicate for an adorned predicate
/// ("magic__p__bf"). Its arity is the number of bound positions.
std::string MagicName(const std::string& predicate,
                      const Adornment& adornment);

/// The rewritten program plus bookkeeping for the solver.
struct MagicProgram {
  ast::Program program;
  /// Adorned name of the goal predicate; the goal's answers are exactly
  /// this predicate's tuples (after the solver's ground-argument filter).
  std::string answer_predicate;
  /// Name of the goal's magic predicate. The caller inserts one fact for
  /// it per binding — the goal values at `seed_positions` — before
  /// evaluating.
  std::string seed_predicate;
  /// Goal argument positions (ascending) forming the seed tuple: the
  /// bound positions of the goal adornment.
  std::vector<size_t> seed_positions;
  /// Names of all magic predicates. Their facts are demand, not data:
  /// they never root the extended active domain (eval/engine.h).
  std::set<std::string> magic_predicates;
};

/// Rewrites the adorned slice of `program` (see the file comment).
Result<MagicProgram> MagicRewrite(const ast::Program& program,
                                  const AdornmentResult& adornment);

}  // namespace query
}  // namespace seqlog

#endif  // SEQLOG_QUERY_MAGIC_H_
