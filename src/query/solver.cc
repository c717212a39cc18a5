#include "query/solver.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "analysis/safety.h"
#include "base/logging.h"
#include "base/string_util.h"
#include "parser/parser.h"

namespace seqlog {
namespace query {

namespace {

/// Evaluates a ground index term; `end_value` is len(base) of the
/// enclosing indexed term (Section 3.2).
Result<int64_t> EvalGroundIndex(const ast::IndexTermPtr& term,
                                int64_t end_value) {
  switch (term->kind) {
    case ast::IndexTerm::Kind::kLiteral:
      return term->literal;
    case ast::IndexTerm::Kind::kEnd:
      return end_value;
    case ast::IndexTerm::Kind::kAdd: {
      SEQLOG_ASSIGN_OR_RETURN(int64_t l,
                              EvalGroundIndex(term->lhs, end_value));
      SEQLOG_ASSIGN_OR_RETURN(int64_t r,
                              EvalGroundIndex(term->rhs, end_value));
      return l + r;
    }
    case ast::IndexTerm::Kind::kSub: {
      SEQLOG_ASSIGN_OR_RETURN(int64_t l,
                              EvalGroundIndex(term->lhs, end_value));
      SEQLOG_ASSIGN_OR_RETURN(int64_t r,
                              EvalGroundIndex(term->rhs, end_value));
      return l - r;
    }
    case ast::IndexTerm::Kind::kVariable:
      return Status::InvalidArgument(
          StrCat("goal index term contains variable '", term->var, "'"));
  }
  return Status::Internal("unknown index term kind");
}

/// Evaluates a variable-free sequence term to its interned value.
Result<SeqId> EvalGroundTerm(const ast::SeqTermPtr& term,
                             SequencePool* pool) {
  switch (term->kind) {
    case ast::SeqTerm::Kind::kConstant:
      return term->constant;
    case ast::SeqTerm::Kind::kConcat: {
      SEQLOG_ASSIGN_OR_RETURN(SeqId l, EvalGroundTerm(term->left, pool));
      SEQLOG_ASSIGN_OR_RETURN(SeqId r, EvalGroundTerm(term->right, pool));
      return pool->Concat(l, r);
    }
    case ast::SeqTerm::Kind::kIndexed: {
      SEQLOG_ASSIGN_OR_RETURN(SeqId base, EvalGroundTerm(term->base, pool));
      const int64_t len = static_cast<int64_t>(pool->Length(base));
      SEQLOG_ASSIGN_OR_RETURN(int64_t lo, EvalGroundIndex(term->lo, len));
      SEQLOG_ASSIGN_OR_RETURN(int64_t hi, EvalGroundIndex(term->hi, len));
      if (lo < 1 || hi > len || lo > hi + 1) {
        return Status::OutOfRange(
            StrCat("goal indexed term [", lo, ":", hi,
                   "] is undefined on a sequence of length ", len));
      }
      return pool->Subsequence(base, lo, hi);
    }
    case ast::SeqTerm::Kind::kTransducer:
      return Status::Unimplemented(
          StrCat("transducer term @", term->transducer,
                 "(...) is not supported in goals"));
    case ast::SeqTerm::Kind::kVariable:
      return Status::InvalidArgument(
          StrCat("goal term contains variable '", term->var, "'"));
  }
  return Status::Internal("unknown sequence term kind");
}

/// True if `row` matches the goal pattern: ground positions equal their
/// value and positions sharing a variable hold equal values.
bool RowMatchesGoal(TupleView row,
                    const std::vector<std::optional<SeqId>>& values,
                    const std::vector<std::vector<size_t>>& var_groups) {
  for (size_t j = 0; j < values.size(); ++j) {
    if (values[j].has_value() && row[j] != *values[j]) return false;
  }
  for (const std::vector<size_t>& group : var_groups) {
    for (size_t k = 1; k < group.size(); ++k) {
      if (row[group[k]] != row[group[0]]) return false;
    }
  }
  return true;
}

/// Collects the matching rows of `rel` (which may be null), sorted.
std::vector<std::vector<SeqId>> FilterRelation(
    const Relation* rel, const std::vector<std::optional<SeqId>>& values,
    const std::vector<std::vector<size_t>>& var_groups) {
  std::vector<std::vector<SeqId>> rows;
  if (rel == nullptr) return rows;
  for (uint32_t i = 0; i < rel->size(); ++i) {
    TupleView row = rel->RowAt(i);
    if (RowMatchesGoal(row, values, var_groups)) {
      rows.emplace_back(row.begin(), row.end());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Merges fixed goal values with the per-call parameter bindings;
/// kFailedPrecondition on an unbound parameter.
Result<std::vector<std::optional<SeqId>>> ResolveValues(
    const PreparedGoal& prepared,
    const std::vector<std::optional<SeqId>>& params) {
  std::vector<std::optional<SeqId>> values = prepared.fixed_values;
  for (size_t j = 0; j < prepared.param_at.size(); ++j) {
    const size_t idx = prepared.param_at[j];
    if (idx == 0) continue;
    if (idx > params.size() || !params[idx - 1].has_value()) {
      return Status::FailedPrecondition(
          StrCat("parameter $", idx, " of goal '", prepared.predicate,
                 "' is not bound; call Bind first"));
    }
    values[j] = *params[idx - 1];
  }
  return values;
}

/// The magic seed tuple of one resolved goal instance: its values at the
/// goal's bound positions, in seed-position order. Every bound position
/// is ground or a parameter, so ResolveValues gave it a value.
std::vector<SeqId> SeedTuple(const PreparedGoal& prepared,
                             const std::vector<std::optional<SeqId>>& values) {
  std::vector<SeqId> seed;
  seed.reserve(prepared.magic.seed_positions.size());
  for (size_t j : prepared.magic.seed_positions) {
    SEQLOG_DCHECK(values[j].has_value());
    seed.push_back(*values[j]);
  }
  return seed;
}

}  // namespace

Result<PreparedGoal> Solver::Prepare(const ast::Program& program,
                                     const ast::Atom& goal) const {
  if (goal.kind != ast::Atom::Kind::kPredicate) {
    return Status::InvalidArgument("goal must be a predicate atom");
  }
  PreparedGoal out;
  out.goal = goal;
  out.predicate = goal.predicate;
  out.fixed_values.resize(goal.args.size());
  out.param_at.assign(goal.args.size(), 0);

  // Classify every goal argument: a $N parameter (bound per Execute), a
  // plain variable (free; repeated occurrences join), or a ground term
  // (evaluated now).
  std::vector<bool> ground(goal.args.size(), false);
  std::map<std::string, std::vector<size_t>> positions_of_var;
  std::set<size_t> param_indices;
  for (size_t j = 0; j < goal.args.size(); ++j) {
    const ast::SeqTermPtr& arg = goal.args[j];
    if (arg->kind == ast::SeqTerm::Kind::kVariable) {
      if (parser::IsParamVariable(arg->var)) {
        const size_t idx = parser::ParamIndex(arg->var);
        out.param_at[j] = idx;
        param_indices.insert(idx);
        out.param_count = std::max(out.param_count, idx);
        ground[j] = true;
        continue;
      }
      positions_of_var[arg->var].push_back(j);
      continue;
    }
    std::set<std::string> vars;
    ast::CollectSeqVars(arg, &vars);
    ast::CollectIndexVars(arg, &vars);
    if (!vars.empty()) {
      return Status::InvalidArgument(
          StrCat("goal argument ", j + 1, " of '", goal.predicate,
                 "' must be ground, a plain variable, or a $N parameter"));
    }
    SEQLOG_ASSIGN_OR_RETURN(SeqId value, EvalGroundTerm(arg, pool_));
    out.fixed_values[j] = value;
    ground[j] = true;
  }
  for (size_t i = 1; i <= out.param_count; ++i) {
    if (param_indices.find(i) == param_indices.end()) {
      return Status::InvalidArgument(
          StrCat("goal uses $", out.param_count, " but not $", i,
                 "; parameters must be numbered consecutively from $1"));
    }
  }
  for (auto& [var, positions] : positions_of_var) {
    if (positions.size() > 1) out.var_groups.push_back(positions);
  }

  // Goals on extensional predicates need no rewrite: Execute scans the
  // database directly.
  const std::set<std::string> idb = program.HeadPredicates();
  if (idb.find(goal.predicate) == idb.end()) {
    Result<PredId> pred = catalog_->Find(goal.predicate);
    if (!pred.ok()) {
      return Status::NotFound(
          StrCat("unknown predicate '", goal.predicate, "'"));
    }
    if (catalog_->Arity(pred.value()) != goal.args.size()) {
      return Status::InvalidArgument(
          StrCat("goal arity ", goal.args.size(), " != arity ",
                 catalog_->Arity(pred.value()), " of '", goal.predicate,
                 "'"));
    }
    out.edb = true;
    out.edb_pred = pred.value();
    out.goal_adornment = MakeAdornment(ground);
    return out;
  }

  // Adorn and rewrite — once. Parameters adorn exactly like ground
  // constants; their values arrive per Execute as the magic seed fact,
  // so the rewrite (and its compiled plans) is shared by all bindings.
  SEQLOG_ASSIGN_OR_RETURN(AdornmentResult adornment,
                          AdornProgram(program, goal.predicate, ground));
  SEQLOG_ASSIGN_OR_RETURN(MagicProgram magic,
                          MagicRewrite(program, adornment));
  out.goal_adornment = adornment.goal_adornment;
  out.adorned_predicates = adornment.reachable.size();

  // The rewrite must not cost us the Theorem 8 guarantee: if the original
  // program is strongly safe but the guard edges closed a constructive
  // cycle, demand evaluation could diverge where Evaluate would not.
  analysis::SafetyReport original_report = analysis::AnalyzeSafety(program);
  if (original_report.strongly_safe) {
    analysis::SafetyReport rewritten_report =
        analysis::AnalyzeSafety(magic.program);
    if (!rewritten_report.strongly_safe) {
      std::string detail;
      if (rewritten_report.offending_edge.has_value()) {
        detail = StrCat(" (constructive cycle through ",
                        rewritten_report.offending_edge->first, " -> ",
                        rewritten_report.offending_edge->second,
                        "; full cycle ",
                        Join(rewritten_report.cycle_path, " -> "), ")");
      }
      return Status::FailedPrecondition(
          StrCat("goal on '", goal.predicate, "'",
                 goal.loc.valid()
                     ? StrCat(" (at ", ast::ToString(goal.loc), ")")
                     : "",
                 " is not demand-evaluable: the magic rewrite is not "
                 "strongly safe although the program is",
                 detail, "; use Evaluate + Query instead"));
    }
  }

  // Compile the rewritten program once; Execute reuses the plans. The
  // magic facts carry goal values, not data, so they never root the
  // run's domain: a clause that enumerates it sees only what the data
  // and the derivations put there, as in the full fixpoint.
  auto evaluator =
      std::make_shared<eval::Evaluator>(catalog_, pool_, registry_);
  SEQLOG_RETURN_IF_ERROR(
      evaluator->SetProgram(magic.program, magic.magic_predicates));
  out.evaluator = std::move(evaluator);
  // SetProgram registered every predicate of the rewrite in the catalog.
  SEQLOG_ASSIGN_OR_RETURN(out.seed_pred,
                          catalog_->Find(magic.seed_predicate));
  SEQLOG_ASSIGN_OR_RETURN(out.answer_pred,
                          catalog_->Find(magic.answer_predicate));
  for (const std::string& name : magic.magic_predicates) {
    SEQLOG_ASSIGN_OR_RETURN(PredId pred, catalog_->Find(name));
    out.magic_preds.push_back(pred);
  }
  out.magic = std::move(magic);
  return out;
}

BatchSolveResult Solver::Execute(
    const PreparedGoal& prepared, const Database& edb,
    std::span<const Binding> bindings, const SolveOptions& options,
    std::shared_ptr<const ExtendedDomain> base_domain) const {
  BatchSolveResult out;
  out.items.resize(bindings.size());

  // Resolve every binding: extensional goals are answered by a scan now,
  // the others contribute their seed fact to the one run.
  std::vector<std::vector<std::optional<SeqId>>> values(bindings.size());
  Database seeds(catalog_);
  size_t pending = 0;  // bindings awaiting the run's answers
  for (size_t i = 0; i < bindings.size(); ++i) {
    SolveResult& item = out.items[i];
    item.stats.goal_adornment = prepared.goal_adornment;
    item.stats.adorned_predicates = prepared.adorned_predicates;
    item.stats.rewritten_clauses = prepared.magic.program.clauses.size();
    Result<std::vector<std::optional<SeqId>>> resolved =
        ResolveValues(prepared, bindings[i]);
    if (!resolved.ok()) {
      item.status = resolved.status();
      continue;
    }
    values[i] = std::move(resolved).value();
    if (prepared.edb) {
      item.answers = FilterRelation(edb.Get(prepared.edb_pred), values[i],
                                    prepared.var_groups);
      item.stats.answers = item.answers.size();
      continue;
    }
    seeds.Insert(prepared.seed_pred, SeedTuple(prepared, values[i]));
    ++pending;
  }
  if (pending == 0) return out;

  // Evaluate the cached rewrite into a scratch database with the shared
  // catalog/pool, so extensional PredIds and SeqIds line up.
  Database scratch(catalog_);
  eval::EvalOutcome outcome = prepared.evaluator->Evaluate(
      edb, &seeds, std::move(base_domain), options.eval, &scratch);
  out.evaluations = 1;
  out.status = outcome.status;
  const size_t edb_facts = edb.TotalFacts();
  const size_t total_facts = scratch.TotalFacts();
  const size_t derived_facts =
      total_facts > edb_facts ? total_facts - edb_facts : 0;
  size_t magic_facts = 0;
  for (PredId pred : prepared.magic_preds) {
    const Relation* rel = scratch.Get(pred);
    if (rel != nullptr) magic_facts += rel->size();
  }

  // Each binding's answers are the answer-predicate tuples matching its
  // bound values (like Evaluate, a budget-exhausted run keeps partial
  // answers). The run's counters are shared; the last binding takes
  // them without a copy.
  const Relation* answers = scratch.Get(prepared.answer_pred);
  for (size_t i = 0; i < bindings.size(); ++i) {
    SolveResult& item = out.items[i];
    if (!item.status.ok()) continue;
    item.answers = FilterRelation(answers, values[i], prepared.var_groups);
    item.stats.answers = item.answers.size();
    item.stats.derived_facts = derived_facts;
    item.stats.magic_facts = magic_facts;
    item.status = outcome.status;
    if (--pending == 0) {
      item.stats.eval = std::move(outcome.stats);
    } else {
      item.stats.eval = outcome.stats;
    }
  }
  return out;
}

}  // namespace query
}  // namespace seqlog
