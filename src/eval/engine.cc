#include "eval/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "analysis/safety.h"
#include "ast/validate.h"
#include "base/string_util.h"

namespace seqlog {
namespace eval {

namespace {
constexpr size_t kNoDelta = static_cast<size_t>(-1);

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

struct Evaluator::FireTask {
  size_t plan_idx = 0;
  size_t delta_step = kNoDelta;
};

struct Evaluator::RunState {
  Database* model = nullptr;
  /// The run's domain: owned_domain.get() for cold Evaluate runs,
  /// the caller's live domain for Resaturate (which borrows).
  ExtendedDomain* domain = nullptr;
  std::unique_ptr<ExtendedDomain> owned_domain;
  std::unique_ptr<Database> delta;
  std::unique_ptr<Database> scratch;
  EvalOptions options;
  EvalStats stats;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
  bool domain_grew = false;  ///< during the most recently merged round
  size_t last_merged_new = 0;  ///< facts added by the last merge
};

Evaluator::Evaluator(Catalog* catalog, SequencePool* pool,
                     const FunctionRegistry* registry)
    : catalog_(catalog), pool_(pool), registry_(registry) {}

Status Evaluator::SetProgram(const ast::Program& program,
                             const std::set<std::string>& demand) {
  SEQLOG_RETURN_IF_ERROR(ast::Validate(program));
  std::vector<ClausePlan> plans;
  plans.reserve(program.clauses.size());
  for (const ast::Clause& clause : program.clauses) {
    SEQLOG_ASSIGN_OR_RETURN(ClausePlan plan,
                            CompileClause(clause, catalog_, registry_));
    plans.push_back(std::move(plan));
  }
  std::vector<bool> demand_preds;
  for (const std::string& name : demand) {
    // A demand predicate no clause mentions has no facts to exclude.
    Result<PredId> pred = catalog_->Find(name);
    if (!pred.ok()) continue;
    if (pred.value() >= demand_preds.size()) {
      demand_preds.resize(pred.value() + 1, false);
    }
    demand_preds[pred.value()] = true;
  }
  program_ = program;
  plans_ = std::move(plans);
  demand_ = std::move(demand_preds);
  return Status::Ok();
}

Status Evaluator::LoadFacts(const Database& db, bool close,
                            RunState* state) const {
  std::vector<SeqId> roots;
  for (PredId pred : db.PredicatesWithRelations()) {
    const Relation* rel = db.Get(pred);
    if (rel->empty()) continue;
    state->model->GetOrCreate(pred)->Reserve(rel->size());
    state->delta->GetOrCreate(pred)->Reserve(rel->size());
    const bool roots_domain = RootsDomain(pred);
    for (uint32_t i = 0; i < rel->size(); ++i) {
      TupleView row = rel->RowAt(i);
      state->model->Insert(pred, row);
      state->delta->Insert(pred, row);
      if (close) {
        if (roots_domain) roots.insert(roots.end(), row.begin(), row.end());
      } else {
        SEQLOG_DCHECK(std::all_of(row.begin(), row.end(), [&](SeqId arg) {
          return state->domain->Contains(arg);
        })) << "the base domain lacks a database sequence";
      }
    }
  }
  return state->domain->ExtendWith(
      roots, state->options.limits.max_domain_sequences);
}

Status Evaluator::InitState(const Database& edb, const Database* extra_facts,
                            std::shared_ptr<const ExtendedDomain> base_domain,
                            const EvalOptions& options, Database* model,
                            RunState* state) const {
  if (model->TotalFacts() != 0) {
    return Status::InvalidArgument("model database must start empty");
  }
  state->model = model;
  state->options = options;
  const bool layered = base_domain != nullptr;
  state->owned_domain =
      layered
          ? std::make_unique<ExtendedDomain>(pool_, std::move(base_domain))
          : std::make_unique<ExtendedDomain>(pool_);
  state->domain = state->owned_domain.get();
  state->delta = std::make_unique<Database>(catalog_);
  state->scratch = std::make_unique<Database>(catalog_);
  state->start = std::chrono::steady_clock::now();
  if (options.limits.max_millis > 0) {
    state->has_deadline = true;
    state->deadline =
        state->start + std::chrono::milliseconds(options.limits.max_millis);
  }
  // The database is a set of ground clauses with empty bodies
  // (Definition 4 treats db atoms as clauses): load it as the starting
  // interpretation and seed the extended active domain (Definition 3).
  // A base domain is by contract the domain of `edb`, so a layered run
  // closes only the extra facts.
  const auto load_start = std::chrono::steady_clock::now();
  Status load_status = LoadFacts(edb, /*close=*/!layered, state);
  if (load_status.ok() && extra_facts != nullptr) {
    load_status = LoadFacts(*extra_facts, /*close=*/true, state);
  }
  state->stats.domain_load_millis += MillisSince(load_start);
  SEQLOG_RETURN_IF_ERROR(load_status);
  // A layered run never closes the database, so enforce the budget on
  // the total explicitly — a snapshot execution must fail the same way a
  // live one does.
  const size_t max_domain = options.limits.max_domain_sequences;
  if (max_domain != 0 && state->domain->size() > max_domain) {
    return Status::ResourceExhausted(
        StrCat("extended active domain exceeded ", max_domain,
               " sequences"));
  }
  state->domain_grew = true;
  return Status::Ok();
}

Status Evaluator::CheckIterationBudget(RunState* state) const {
  ++state->stats.iterations;
  if (state->stats.iterations > state->options.limits.max_iterations) {
    return Status::ResourceExhausted(
        StrCat("exceeded ", state->options.limits.max_iterations,
               " iterations"));
  }
  // The per-firing deadline poll uses a tick counter local to one firing;
  // an evaluation made of many short iterations would never reach a poll
  // point, so the deadline must also be checked once per iteration here.
  if (state->has_deadline &&
      std::chrono::steady_clock::now() > state->deadline) {
    return Status::ResourceExhausted("evaluation exceeded time budget");
  }
  return Status::Ok();
}

Status Evaluator::FireSubsetOnce(const std::vector<size_t>& subset,
                                 RunState* state) const {
  SEQLOG_RETURN_IF_ERROR(CheckIterationBudget(state));
  std::vector<FireTask> tasks;
  tasks.reserve(subset.size());
  for (size_t idx : subset) {
    tasks.push_back(FireTask{idx, kNoDelta});
  }
  return FireRound(tasks, state);
}

// Round barrier: merges the round's scratch database into the model.
// MergeFrom invokes the callback once per atom new to the model, which
// adds it to the next delta and, unless it is a demand fact, closes its
// argument sequences into the domain. Closing the roots the domain
// lacks is accounted into EvalStats::domain_merge_millis, the rest of
// the merge into relation_merge_millis. Only those roots are timed, not
// every merged fact: most facts bring no new root, and two clock reads
// per fact would cost more than the work they measure.
Status Evaluator::MergeRound(RunState* state) const {
  const auto merge_start = std::chrono::steady_clock::now();
  auto delta_new = std::make_unique<Database>(catalog_);
  const size_t domain_before = state->domain->size();
  const size_t max_domain = state->options.limits.max_domain_sequences;
  double closure_millis = 0;
  state->last_merged_new = 0;
  Status status = state->model->MergeFrom(
      *state->scratch, [&](PredId pred, TupleView row) -> Status {
        ++state->last_merged_new;
        delta_new->Insert(pred, row);
        if (!RootsDomain(pred)) return Status::Ok();
        for (SeqId arg : row) {
          if (state->domain->Contains(arg)) continue;
          const auto closure_start = std::chrono::steady_clock::now();
          Status closed = state->domain->AddRoot(arg, max_domain);
          closure_millis += MillisSince(closure_start);
          SEQLOG_RETURN_IF_ERROR(closed);
        }
        return Status::Ok();
      });
  state->stats.domain_merge_millis += closure_millis;
  state->stats.relation_merge_millis +=
      std::max(0.0, MillisSince(merge_start) - closure_millis);
  SEQLOG_RETURN_IF_ERROR(status);
  state->domain_grew = state->domain->size() != domain_before;
  state->delta = std::move(delta_new);
  if (state->options.track_growth) {
    state->stats.growth.emplace_back(state->model->TotalFacts(),
                                     state->domain->size());
  }
  return Status::Ok();
}

Status Evaluator::FireRound(const std::vector<FireTask>& tasks,
                            RunState* state) const {
  const auto fire_start = std::chrono::steady_clock::now();
  // Every firing of the round derives into one scratch database through
  // one context, in task order.
  state->scratch->Clear();
  FireContext ctx;
  ctx.pool = pool_;
  ctx.domain = state->domain;
  ctx.full = state->model;
  ctx.delta = state->delta.get();
  ctx.out = state->scratch.get();
  ctx.limits = &state->options.limits;
  ctx.stats = &state->stats;
  ctx.deadline = state->deadline;
  ctx.has_deadline = state->has_deadline;
  ctx.existing_facts = state->model->TotalFacts();
  for (const FireTask& t : tasks) {
    SEQLOG_RETURN_IF_ERROR(
        FireClause(plans_[t.plan_idx], t.delta_step, &ctx));
  }
  state->stats.fire_millis += MillisSince(fire_start);
  return MergeRound(state);
}

Status Evaluator::Saturate(const std::vector<size_t>& subset, bool naive,
                           bool first_full, RunState* state) const {
  if (subset.empty()) return Status::Ok();
  bool first = first_full;
  while (true) {
    SEQLOG_RETURN_IF_ERROR(CheckIterationBudget(state));
    bool domain_grew_last_round = state->domain_grew;
    std::vector<FireTask> tasks;
    tasks.reserve(subset.size());
    for (size_t idx : subset) {
      const ClausePlan& plan = plans_[idx];
      if (naive || first ||
          (plan.domain_read != DomainRead::kNone &&
           domain_grew_last_round)) {
        // New domain elements can satisfy a domain read (an enumerated
        // variable, an index range, a membership test) with old facts;
        // a full re-fire is the only sound option.
        tasks.push_back(FireTask{idx, kNoDelta});
        continue;
      }
      for (size_t si : plan.match_steps) {
        tasks.push_back(FireTask{idx, si});
      }
    }
    SEQLOG_RETURN_IF_ERROR(FireRound(tasks, state));
    first = false;
    // Progress is measured after the merge: naive evaluation re-derives
    // old facts into the scratch set every round, so scratch inserts
    // alone do not indicate a growing interpretation.
    if (state->last_merged_new == 0 && !state->domain_grew) break;
  }
  return Status::Ok();
}

Status Evaluator::EvaluateFlat(const EvalOptions& options,
                               RunState* state) const {
  (void)options;
  std::vector<size_t> all(plans_.size());
  std::iota(all.begin(), all.end(), 0);
  return Saturate(all, options.strategy == Strategy::kNaive,
                  /*first_full=*/true, state);
}

Status Evaluator::EvaluateStratified(const EvalOptions& options,
                                     RunState* state) const {
  (void)options;
  analysis::SafetyReport report = analysis::AnalyzeSafety(program_);
  if (!report.strongly_safe) {
    std::string detail;
    if (report.offending_edge.has_value()) {
      detail = StrCat(" (constructive cycle through ",
                      report.offending_edge->first, " -> ",
                      report.offending_edge->second, "; full cycle ",
                      Join(report.cycle_path, " -> "),
                      report.cycle_loc.valid()
                          ? StrCat(", clause at ",
                                   ast::ToString(report.cycle_loc))
                          : "",
                      ")");
    }
    return Status::FailedPrecondition(
        StrCat("stratified evaluation requires a strongly safe program",
               detail));
  }
  state->stats.strata = report.strata.size();
  // Map head predicates to clause indices once: strata store indices into
  // program_.clauses, which align with plans_ by construction.
  for (const analysis::Stratum& stratum : report.strata) {
    if (!stratum.constructive_clauses.empty()) {
      // Theorem 8: constructive rules of a stratum depend only on lower
      // strata, so one application saturates them.
      SEQLOG_RETURN_IF_ERROR(
          FireSubsetOnce(stratum.constructive_clauses, state));
    }
    SEQLOG_RETURN_IF_ERROR(Saturate(stratum.nonconstructive_clauses,
                                    /*naive=*/false, /*first_full=*/true,
                                    state));
  }
  return Status::Ok();
}

EvalOutcome Evaluator::Evaluate(const Database& edb,
                                const EvalOptions& options,
                                Database* model) const {
  return Evaluate(edb, nullptr, nullptr, options, model);
}

EvalOutcome Evaluator::Evaluate(
    const Database& edb, const Database* extra_facts,
    std::shared_ptr<const ExtendedDomain> base_domain,
    const EvalOptions& options, Database* model) const {
  return Evaluate(edb, extra_facts, std::move(base_domain), options, model,
                  /*domain_out=*/nullptr);
}

EvalOutcome Evaluator::Evaluate(
    const Database& edb, const Database* extra_facts,
    std::shared_ptr<const ExtendedDomain> base_domain,
    const EvalOptions& options, Database* model,
    std::unique_ptr<ExtendedDomain>* domain_out) const {
  EvalOutcome outcome;
  RunState state;
  outcome.status = InitState(edb, extra_facts, std::move(base_domain),
                             options, model, &state);
  if (outcome.status.ok()) {
    switch (options.strategy) {
      case Strategy::kNaive:
      case Strategy::kSemiNaive:
        outcome.status = EvaluateFlat(options, &state);
        break;
      case Strategy::kStratified:
        outcome.status = EvaluateStratified(options, &state);
        break;
    }
  }
  state.stats.facts = model->TotalFacts();
  state.stats.domain_sequences = state.domain ? state.domain->size() : 0;
  state.stats.millis = MillisSince(state.start);
  outcome.stats = std::move(state.stats);
  if (domain_out != nullptr) {
    // Hand the run's domain to the caller (live-ingest keeps it paired
    // with the model for later Resaturate calls). On error it is the
    // partial domain of a failed run — discard it with the model.
    *domain_out = std::move(state.owned_domain);
  }
  return outcome;
}

EvalOutcome Evaluator::Resaturate(Database* model, ExtendedDomain* domain,
                                  const Database& edb,
                                  Database::Watermark* absorbed,
                                  const EvalOptions& options) const {
  EvalOutcome outcome;
  RunState state;
  state.model = model;
  state.domain = domain;
  state.options = options;
  state.delta = std::make_unique<Database>(catalog_);
  state.scratch = std::make_unique<Database>(catalog_);
  state.start = std::chrono::steady_clock::now();
  if (options.limits.max_millis > 0) {
    state.has_deadline = true;
    state.deadline =
        state.start + std::chrono::milliseconds(options.limits.max_millis);
  }
  // Seed: only rows genuinely new to the model become the round-0
  // delta; their argument sequences close into the domain exactly like
  // an EDB load. Duplicates are already below the fixpoint — reseeding
  // them would only re-derive what the model holds.
  const size_t domain_before = domain->size();
  const auto load_start = std::chrono::steady_clock::now();
  std::vector<SeqId> roots;
  edb.ForEachRowPast(absorbed, [&](PredId pred, TupleView row) {
    if (!model->Insert(pred, row)) return;
    ++state.stats.ingested_facts;
    state.delta->Insert(pred, row);
    roots.insert(roots.end(), row.begin(), row.end());
  });
  Status status =
      domain->ExtendWith(roots, options.limits.max_domain_sequences);
  state.stats.domain_load_millis += MillisSince(load_start);
  state.domain_grew = domain->size() != domain_before;
  state.last_merged_new = state.stats.ingested_facts;
  if (status.ok() && state.stats.ingested_facts > 0) {
    // Same rounds as a cold run, minus the initial full firing: any new
    // derivation uses at least one seeded fact (semi-naive argument), or
    // a domain element the seed closure introduced — which the full
    // re-fires of domain-reading clauses inside Saturate cover. Always
    // the flat loop: re-applying rules to a saturated model is sound for
    // any interpretation between the old and the new fixpoint, so
    // stratified programs need no stratum order here.
    std::vector<size_t> all(plans_.size());
    std::iota(all.begin(), all.end(), 0);
    status = Saturate(all, /*naive=*/false, /*first_full=*/false, &state);
  }
  outcome.status = status;
  state.stats.facts = model->TotalFacts();
  state.stats.domain_sequences = domain->size();
  state.stats.resaturate_rounds = state.stats.iterations;
  state.stats.millis = MillisSince(state.start);
  state.stats.resaturate_millis = state.stats.millis;
  outcome.stats = std::move(state.stats);
  return outcome;
}

}  // namespace eval
}  // namespace seqlog
