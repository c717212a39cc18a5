#include "query/magic.h"

#include <utility>

#include "base/string_util.h"

namespace seqlog {
namespace query {

namespace {

/// The magic guard literal for `predicate`: the atom's terms at the
/// adornment's bound positions, under the magic predicate name.
ast::Atom MakeGuard(const std::string& predicate, const ast::Atom& atom,
                    const Adornment& adornment) {
  std::vector<ast::SeqTermPtr> args;
  for (size_t j = 0; j < adornment.size(); ++j) {
    if (adornment[j] == 'b') args.push_back(atom.args[j]);
  }
  return ast::MakePredicateAtom(MagicName(predicate, adornment),
                                std::move(args));
}

/// Fresh variable names V1..Vk that cannot clash with user variables
/// (the lexer only produces identifiers, never "$").
std::vector<ast::SeqTermPtr> FreshVariables(size_t arity) {
  std::vector<ast::SeqTermPtr> vars;
  vars.reserve(arity);
  for (size_t j = 0; j < arity; ++j) {
    vars.push_back(ast::MakeVariable(StrCat("Import$", j)));
  }
  return vars;
}

}  // namespace

std::string AdornedName(const std::string& predicate,
                        const Adornment& adornment) {
  return StrCat(predicate, "__", adornment);
}

std::string MagicName(const std::string& predicate,
                      const Adornment& adornment) {
  return StrCat("magic__", predicate, "__", adornment);
}

Result<MagicProgram> MagicRewrite(const ast::Program& program,
                                  const AdornmentResult& adornment) {
  MagicProgram out;
  if (adornment.reachable.empty()) {
    return Status::InvalidArgument("no reachable adorned predicates");
  }
  const std::string& goal_predicate = adornment.reachable.front().first;
  out.answer_predicate =
      AdornedName(goal_predicate, adornment.goal_adornment);
  out.seed_predicate =
      MagicName(goal_predicate, adornment.goal_adornment);
  // An all-free goal seeds a nullary magic fact, which simply switches
  // on every reachable clause — the degenerate full evaluation.
  for (size_t j = 0; j < adornment.goal_adornment.size(); ++j) {
    if (adornment.goal_adornment[j] == 'b') out.seed_positions.push_back(j);
  }

  for (const auto& [pred, adorn] : adornment.reachable) {
    out.magic_predicates.insert(MagicName(pred, adorn));
  }

  // Import clauses: the adorned copy must also see facts stored under
  // the original name — for every reachable predicate, since a prepared
  // goal outlives the rewrite and a predicate may receive facts later.
  for (const auto& [pred, adorn] : adornment.reachable) {
    std::vector<ast::SeqTermPtr> vars = FreshVariables(adorn.size());
    ast::Clause import;
    import.head = ast::MakePredicateAtom(AdornedName(pred, adorn), vars);
    import.body.push_back(MakeGuard(pred, import.head, adorn));
    import.body.push_back(ast::MakePredicateAtom(pred, std::move(vars)));
    out.program.clauses.push_back(std::move(import));
  }

  for (const AdornedClause& ac : adornment.clauses) {
    const ast::Clause& orig = program.clauses[ac.clause_index];
    ast::Atom guard = MakeGuard(ac.predicate, orig.head, ac.adornment);

    // Magic propagation: demand flows to each IDB body literal through
    // the guard plus everything to its left (adorned names throughout).
    for (size_t i = 0; i < orig.body.size(); ++i) {
      if (!ac.body_is_idb[i]) continue;
      const ast::Atom& literal = orig.body[i];
      const Adornment& beta = ac.body_adornments[i];
      ast::Clause propagation;
      propagation.head = MakeGuard(literal.predicate, literal, beta);
      propagation.body.push_back(guard);
      for (size_t k = 0; k < i; ++k) {
        ast::Atom prior = orig.body[k];
        if (ac.body_is_idb[k]) {
          prior.predicate =
              AdornedName(prior.predicate, ac.body_adornments[k]);
        }
        propagation.body.push_back(std::move(prior));
      }
      out.program.clauses.push_back(std::move(propagation));
    }

    // The guarded adorned clause itself.
    ast::Clause guarded;
    guarded.head = orig.head;
    guarded.head.predicate = AdornedName(ac.predicate, ac.adornment);
    guarded.body.push_back(std::move(guard));
    for (size_t i = 0; i < orig.body.size(); ++i) {
      ast::Atom literal = orig.body[i];
      if (ac.body_is_idb[i]) {
        literal.predicate =
            AdornedName(literal.predicate, ac.body_adornments[i]);
      }
      guarded.body.push_back(std::move(literal));
    }
    out.program.clauses.push_back(std::move(guarded));
  }
  return out;
}

}  // namespace query
}  // namespace seqlog
