#include "query/solver.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "analysis/safety.h"
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

/// Builds the magic seed tuple for one resolved goal instance: the
/// values at the goal's bound positions, in seed-position order.
Result<std::vector<SeqId>> BuildSeedTuple(
    const PreparedGoal& prepared,
    const std::vector<std::optional<SeqId>>& values) {
  std::vector<SeqId> seed_tuple;
  seed_tuple.reserve(prepared.magic.seed_positions.size());
  for (size_t j : prepared.magic.seed_positions) {
    const std::optional<SeqId>& v = values[j];
    if (!v.has_value()) {
      return Status::Internal("bound goal position without a value");
    }
    seed_tuple.push_back(*v);
  }
  return seed_tuple;
}

}  // namespace

Solver::Solver(Catalog* catalog, SequencePool* pool,
               const eval::FunctionRegistry* registry)
    : catalog_(catalog), pool_(pool), registry_(registry) {}

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
  MagicOptions magic_options;
  magic_options.seed_as_facts = true;
  magic_options.import_all_reachable = true;
  SEQLOG_ASSIGN_OR_RETURN(
      MagicProgram magic,
      MagicRewrite(program, adornment, {}, {}, magic_options));
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

  // Compile the rewritten program once; Execute reuses the plans.
  auto evaluator =
      std::make_shared<eval::Evaluator>(catalog_, pool_, registry_);
  SEQLOG_RETURN_IF_ERROR(evaluator->SetProgram(magic.program));
  out.evaluator = std::move(evaluator);
  // SetProgram registered every predicate of the rewrite in the catalog.
  SEQLOG_ASSIGN_OR_RETURN(out.seed_pred,
                          catalog_->Find(magic.seed_predicate));
  SEQLOG_ASSIGN_OR_RETURN(out.answer_pred,
                          catalog_->Find(magic.answer_predicate));
  out.magic = std::move(magic);
  return out;
}

SolveResult Solver::Execute(
    const PreparedGoal& prepared, const Database& edb,
    const std::vector<std::optional<SeqId>>& params,
    const SolveOptions& options,
    std::shared_ptr<const ExtendedDomain> base_domain) const {
  SolveResult result;
  result.stats.goal_adornment = prepared.goal_adornment;
  result.stats.adorned_predicates = prepared.adorned_predicates;
  result.stats.rewritten_clauses = prepared.magic.program.clauses.size();

  Result<std::vector<std::optional<SeqId>>> values =
      ResolveValues(prepared, params);
  if (!values.ok()) {
    result.status = values.status();
    return result;
  }

  if (prepared.edb) {
    result.answers = FilterRelation(edb.Get(prepared.edb_pred),
                                    values.value(), prepared.var_groups);
    result.stats.answers = result.answers.size();
    result.status = Status::Ok();
    return result;
  }

  // Inject the goal's bound values as the magic seed fact and evaluate
  // the cached rewrite into a scratch database with the shared
  // catalog/pool, so extensional PredIds and SeqIds line up.
  Database seeds(catalog_);
  Result<std::vector<SeqId>> seed_tuple =
      BuildSeedTuple(prepared, values.value());
  if (!seed_tuple.ok()) {
    result.status = seed_tuple.status();
    return result;
  }
  seeds.Insert(prepared.seed_pred, seed_tuple.value());

  Database scratch(catalog_);
  eval::EvalOutcome outcome = prepared.evaluator->Evaluate(
      edb, &seeds, std::move(base_domain), options.eval, &scratch);
  result.stats.eval = std::move(outcome.stats);
  const size_t edb_facts = edb.TotalFacts();
  const size_t total_facts = scratch.TotalFacts();
  result.stats.derived_facts =
      total_facts > edb_facts ? total_facts - edb_facts : 0;
  for (const std::string& name : prepared.magic.magic_predicates) {
    Result<PredId> pred = catalog_->Find(name);
    if (!pred.ok()) continue;
    const Relation* rel = scratch.Get(pred.value());
    if (rel != nullptr) result.stats.magic_facts += rel->size();
  }

  // Extract the goal's answers (also on budget exhaustion: like
  // Evaluate, Execute keeps the partial result it has).
  result.answers = FilterRelation(scratch.Get(prepared.answer_pred),
                                  values.value(), prepared.var_groups);
  result.stats.answers = result.answers.size();
  result.status = std::move(outcome.status);
  return result;
}

Result<std::shared_ptr<const eval::Evaluator>> Solver::FuseGoals(
    const std::vector<const PreparedGoal*>& goals,
    const SymbolTable& symbols) const {
  // Union the rewrites clause by clause. Goals sharing an adorned
  // subgoal predicate contribute byte-identical clauses (AdornedName is
  // deterministic), so rendering is a sound dedup key.
  ast::Program fused;
  std::unordered_set<std::string> seen;
  size_t rewrites = 0;
  bool each_strongly_safe = true;
  for (const PreparedGoal* goal : goals) {
    if (goal == nullptr || goal->edb) continue;
    ++rewrites;
    each_strongly_safe =
        each_strongly_safe &&
        analysis::AnalyzeSafety(goal->magic.program).strongly_safe;
    for (const ast::Clause& clause : goal->magic.program.clauses) {
      std::string key = ast::ToString(clause, *pool_, symbols);
      if (!seen.insert(std::move(key)).second) continue;
      fused.clauses.push_back(clause);
    }
  }
  if (rewrites < 2) return std::shared_ptr<const eval::Evaluator>();

  // Shared subgoals can route one goal's guard edges through another
  // goal's clauses: if that closes a constructive cycle no individual
  // rewrite has, a fused run could diverge where the per-goal runs
  // would not — refuse, the caller falls back to per-goal runs.
  if (each_strongly_safe &&
      !analysis::AnalyzeSafety(fused).strongly_safe) {
    return Status::FailedPrecondition(
        "fusing these goals closes a constructive cycle that no "
        "individual rewrite has; execute them as separate runs");
  }

  auto evaluator =
      std::make_shared<eval::Evaluator>(catalog_, pool_, registry_);
  SEQLOG_RETURN_IF_ERROR(evaluator->SetProgram(fused));
  return std::shared_ptr<const eval::Evaluator>(std::move(evaluator));
}

BatchSolveResult Solver::ExecuteBatch(
    const std::vector<const PreparedGoal*>& goals,
    const eval::Evaluator* fused, const Database& edb,
    const std::vector<BatchItem>& items, const SolveOptions& options,
    std::shared_ptr<const ExtendedDomain> base_domain) const {
  BatchSolveResult out;
  out.items.resize(items.size());

  // Per-item admission: resolve values now, answer EDB goals by direct
  // scan now, and queue IDB items for the shared run(s).
  std::vector<std::vector<std::optional<SeqId>>> values(items.size());
  std::vector<size_t> idb_items;
  for (size_t i = 0; i < items.size(); ++i) {
    SolveResult& item_result = out.items[i];
    if (items[i].goal >= goals.size() || goals[items[i].goal] == nullptr) {
      item_result.status = Status::OutOfRange(
          StrCat("batch item ", i, " references goal ", items[i].goal,
                 " of a batch over ", goals.size(), " goal(s)"));
      continue;
    }
    const PreparedGoal& prepared = *goals[items[i].goal];
    item_result.stats.goal_adornment = prepared.goal_adornment;
    item_result.stats.adorned_predicates = prepared.adorned_predicates;
    item_result.stats.rewritten_clauses =
        prepared.magic.program.clauses.size();
    Result<std::vector<std::optional<SeqId>>> resolved =
        ResolveValues(prepared, items[i].params);
    if (!resolved.ok()) {
      item_result.status = resolved.status();
      continue;
    }
    values[i] = std::move(resolved).value();
    if (prepared.edb) {
      item_result.answers = FilterRelation(edb.Get(prepared.edb_pred),
                                           values[i], prepared.var_groups);
      item_result.stats.answers = item_result.answers.size();
      item_result.status = Status::Ok();
      continue;
    }
    idb_items.push_back(i);
  }
  if (idb_items.empty()) {
    out.status = Status::Ok();
    return out;
  }

  // Partition the IDB items into runs: one shared run with the fused
  // evaluator, or one run per distinct goal without it. Items of one
  // run inject their seed facts together (duplicate bindings collapse
  // to one seed — Database relations are sets) and the run's rounds and
  // domain growth are paid once for all of them.
  struct Run {
    const eval::Evaluator* evaluator;
    std::vector<size_t> members;
  };
  std::vector<Run> runs;
  if (fused != nullptr) {
    runs.push_back(Run{fused, idb_items});
  } else {
    std::map<size_t, size_t> run_of_goal;  // goal index -> runs index
    for (size_t i : idb_items) {
      auto [it, added] =
          run_of_goal.try_emplace(items[i].goal, runs.size());
      if (added) {
        runs.push_back(
            Run{goals[items[i].goal]->evaluator.get(), {}});
      }
      runs[it->second].members.push_back(i);
    }
  }

  out.status = Status::Ok();
  for (const Run& run : runs) {
    Database seeds(catalog_);
    bool seeded = false;
    for (size_t i : run.members) {
      const PreparedGoal& prepared = *goals[items[i].goal];
      Result<std::vector<SeqId>> seed_tuple =
          BuildSeedTuple(prepared, values[i]);
      if (!seed_tuple.ok()) {
        out.items[i].status = seed_tuple.status();
        continue;
      }
      seeds.Insert(prepared.seed_pred, seed_tuple.value());
      seeded = true;
    }
    if (!seeded) continue;

    Database scratch(catalog_);
    eval::EvalOutcome outcome =
        run.evaluator->Evaluate(edb, &seeds, base_domain, options.eval,
                                &scratch);
    ++out.evaluations;
    out.eval.iterations += outcome.stats.iterations;
    out.eval.facts += outcome.stats.facts;
    out.eval.domain_sequences += outcome.stats.domain_sequences;
    out.eval.derivations += outcome.stats.derivations;
    out.eval.millis += outcome.stats.millis;
    out.eval.fire_millis += outcome.stats.fire_millis;
    out.eval.domain_load_millis += outcome.stats.domain_load_millis;
    out.eval.domain_merge_millis += outcome.stats.domain_merge_millis;
    out.eval.relation_merge_millis += outcome.stats.relation_merge_millis;
    if (!outcome.status.ok() && out.status.ok()) {
      out.status = outcome.status;
    }

    // Shared counters of the run, attributed to each member (they are
    // not per-item separable: the rounds served every member at once).
    const size_t edb_facts = edb.TotalFacts();
    const size_t total_facts = scratch.TotalFacts();
    const size_t derived =
        total_facts > edb_facts ? total_facts - edb_facts : 0;
    size_t magic_facts = 0;
    std::set<std::string> magic_names;
    for (size_t i : run.members) {
      const auto& names = goals[items[i].goal]->magic.magic_predicates;
      magic_names.insert(names.begin(), names.end());
    }
    for (const std::string& name : magic_names) {
      Result<PredId> pred = catalog_->Find(name);
      if (!pred.ok()) continue;
      const Relation* rel = scratch.Get(pred.value());
      if (rel != nullptr) magic_facts += rel->size();
    }

    // Demultiplex: each member's answers are its goal's answer-predicate
    // tuples matching the member's bound values — for a magic rewrite
    // the bound positions are exactly what the seed demanded, so the
    // filter recovers precisely the answers a solo run would derive
    // (like Evaluate, a budget-exhausted run keeps partial answers).
    for (size_t i : run.members) {
      if (!out.items[i].status.ok()) continue;  // seed construction failed
      const PreparedGoal& prepared = *goals[items[i].goal];
      out.items[i].answers =
          FilterRelation(scratch.Get(prepared.answer_pred), values[i],
                         prepared.var_groups);
      out.items[i].stats.answers = out.items[i].answers.size();
      out.items[i].stats.derived_facts = derived;
      out.items[i].stats.magic_facts = magic_facts;
      out.items[i].stats.eval = outcome.stats;
      out.items[i].status = outcome.status;
    }
  }
  return out;
}

SolveResult Solver::Solve(const ast::Program& program, const ast::Atom& goal,
                          const Database& edb, const SolveOptions& options) {
  Result<PreparedGoal> prepared = Prepare(program, goal);
  if (!prepared.ok()) {
    SolveResult result;
    result.status = prepared.status();
    return result;
  }
  return Execute(prepared.value(), edb, {}, options);
}

}  // namespace query
}  // namespace seqlog
