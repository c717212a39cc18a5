#include "core/engine.h"

#include <algorithm>
#include <utility>

#include "base/string_util.h"

namespace seqlog {

Engine::Engine()
    : edb_(std::make_unique<Database>(&catalog_)),
      evaluator_(
          std::make_unique<eval::Evaluator>(&catalog_, &pool_, &registry_)),
      live_model_(evaluator_.get(), &catalog_) {}

Status Engine::RegisterTransducer(
    std::shared_ptr<const SequenceFunction> fn) {
  if (fn == nullptr) return Status::InvalidArgument("null transducer");
  registry_.Register(std::move(fn));
  return Status::Ok();
}

Status Engine::LoadProgram(std::string_view text) {
  SEQLOG_ASSIGN_OR_RETURN(ast::Program program,
                          parser::ParseProgram(text, &symbols_, &pool_));
  return LoadProgramAst(program);
}

Status Engine::LoadProgramAst(const ast::Program& program) {
  SEQLOG_RETURN_IF_ERROR(evaluator_->SetProgram(program));
  program_ = program;
  program_loaded_ = true;
  // A model of the previous program cannot be extended under the new
  // one. The ingest queue survives: staged facts reach the EDB at the
  // next drain or Evaluate regardless of which program is loaded.
  live_model_.Invalidate();
  ivm_cold_pending_ = false;
  // Accumulate warnings for diagnostics(). Body-only predicates are
  // extensional by convention (AddFact typically follows the load), so
  // they are declared rather than reported as SL-W030.
  analysis::LintOptions lint_options;
  const std::set<std::string> idb = program_.HeadPredicates();
  for (const ast::Clause& clause : program_.clauses) {
    for (const ast::Atom& atom : clause.body) {
      if (atom.kind == ast::Atom::Kind::kPredicate &&
          idb.count(atom.predicate) == 0) {
        lint_options.edb_predicates.insert(atom.predicate);
      }
    }
  }
  diagnostics_ = analysis::Lint(program_, pool_, symbols_, lint_options);
  return Status::Ok();
}

Status Engine::AddFact(std::string_view predicate,
                       const std::vector<std::string>& args) {
  std::vector<SeqId> ids;
  ids.reserve(args.size());
  for (const std::string& a : args) {
    ids.push_back(pool_.FromChars(a, &symbols_));
  }
  return AddFactIds(predicate, std::move(ids));
}

Status Engine::AddFactIds(std::string_view predicate,
                          std::vector<SeqId> args) {
  SEQLOG_ASSIGN_OR_RETURN(PredId pred,
                          catalog_.GetOrCreate(predicate, args.size()));
  SEQLOG_ASSIGN_OR_RETURN(bool inserted, edb_->TryInsert(pred, args));
  if (inserted) ++edb_version_;
  return Status::Ok();
}

Status Engine::EnqueueFact(std::string_view predicate,
                           const std::vector<std::string>& args) {
  std::vector<SeqId> ids;
  ids.reserve(args.size());
  for (const std::string& a : args) {
    ids.push_back(pool_.FromChars(a, &symbols_));
  }
  return EnqueueFactIds(predicate, std::move(ids));
}

Status Engine::EnqueueFactIds(std::string_view predicate,
                              std::vector<SeqId> args) {
  // Interning and catalog registration are shared_mutex-guarded, and the
  // queue is MPSC: this whole path is safe from any writer thread while
  // readers execute against snapshots. The EDB (single-writer) is only
  // touched later, by the drain's single consumer.
  SEQLOG_ASSIGN_OR_RETURN(PredId pred,
                          catalog_.GetOrCreate(predicate, args.size()));
  return ingest_.TryPush(ivm::PendingFact{pred, std::move(args)});
}

size_t Engine::FlushIngest() {
  std::vector<ivm::PendingFact> pending;
  ingest_.DrainTo(&pending);
  for (const ivm::PendingFact& fact : pending) {
    // Insert CHECKs the predicate and arity EnqueueFactIds admitted.
    if (edb_->Insert(fact.pred, fact.args)) ++edb_version_;
  }
  return pending.size();
}

eval::EvalOutcome Engine::DrainIngest(const eval::EvalOptions& options) {
  const size_t flushed = FlushIngest();
  eval::EvalOutcome outcome;
  if (ivm_cold_pending_) {
    outcome = live_model_.Build(*edb_, options);
    outcome.stats.cold_fallback = true;
    outcome.stats.ingested_facts = flushed;
    ivm_cold_pending_ = !outcome.status.ok();
  } else if (live_model_.built()) {
    // Catch up from every EDB row the model has not absorbed: the facts
    // just flushed and those AddFact wrote since the last run.
    outcome = live_model_.Apply(*edb_, options);
    ivm_cold_pending_ = !outcome.status.ok();
  } else {
    // No model to maintain (Evaluate never ran): the facts are in the
    // EDB and snapshots pick them up.
    outcome.stats.ingested_facts = flushed;
  }
  registry_.CollectTransducerStats(&outcome.stats.transducer);
  return outcome;
}

void Engine::ClearFacts() {
  edb_ = std::make_unique<Database>(&catalog_);
  // Retractions are not expressible as insert deltas: invalidate and let
  // the next DrainIngest recompute cold (EvalStats::cold_fallback).
  ivm_cold_pending_ = live_model_.built() && program_loaded_;
  live_model_.Invalidate();
  // Facts staged before the clear are dropped with everything else.
  std::vector<ivm::PendingFact> discarded;
  ingest_.DrainTo(&discarded);
  ++edb_version_;
  // The publish cache is built incrementally and assumes facts are only
  // ever added; dropping facts invalidates it. Snapshots already handed
  // out keep their own copies.
  published_.reset();
  published_domain_.reset();
  published_row_watermark_.clear();
}

Result<PreparedQuery> Engine::Prepare(std::string_view goal) {
  SEQLOG_ASSIGN_OR_RETURN(ast::Atom parsed,
                          parser::ParseGoal(goal, &symbols_, &pool_));
  query::Solver solver(&catalog_, &pool_, &registry_);
  SEQLOG_ASSIGN_OR_RETURN(query::PreparedGoal prepared,
                          solver.Prepare(program_, parsed));
  return PreparedQuery::Create(this, std::string(goal), std::move(prepared),
                               analysis::LintGoal(program_, parsed));
}

Snapshot Engine::PublishSnapshot() {
  FlushIngest();
  if (published_ == nullptr || published_version_ != edb_version_) {
    // Root the snapshot's sequences in a frozen domain once, here on the
    // write path, so no Execute against it roots the database again.
    // Incremental across publishes: facts are append-only (ClearFacts
    // drops the cache), so the previous domain's automaton is cloned —
    // a few vector copies — and AddRoot below only walks an
    // already-rooted sequence.
    published_ = std::shared_ptr<const Database>(edb_->Clone());
    std::shared_ptr<ExtendedDomain> domain =
        published_domain_ != nullptr
            ? std::shared_ptr<ExtendedDomain>(published_domain_->CloneFlat())
            : std::make_shared<ExtendedDomain>(&pool_);
    // Facts are append-only (ClearFacts resets the cache), so only rows
    // past the previous publish's watermark need rooting.
    published_->ForEachRowPast(
        &published_row_watermark_, [&](PredId, TupleView row) {
          for (SeqId arg : row) {
            // Unbudgeted: the EDB was already admitted by AddFact.
            Status s = domain->AddRoot(arg);
            SEQLOG_CHECK(s.ok()) << s.ToString();
          }
        });
    published_domain_ = std::move(domain);
    published_version_ = edb_version_;
  }
  return Snapshot(published_, published_domain_, published_version_);
}

analysis::SafetyReport Engine::AnalyzeSafety() const {
  return analysis::AnalyzeSafety(program_);
}

eval::EvalOutcome Engine::Evaluate(const eval::EvalOptions& options) {
  eval::EvalOutcome outcome;
  if (!program_loaded_) {
    outcome.status = Status::FailedPrecondition("no program loaded");
    return outcome;
  }
  // Writers may have staged facts that never reached the EDB
  // (EnqueueFact): move them so the cold run covers everything.
  FlushIngest();
  ivm_cold_pending_ = false;
  outcome = live_model_.Build(*edb_, options);
  registry_.CollectTransducerStats(&outcome.stats.transducer);
  return outcome;
}

Result<std::vector<std::vector<SeqId>>> Engine::QueryIds(
    std::string_view predicate) const {
  const Database* model = live_model_.model();
  if (model == nullptr) {
    return Status::FailedPrecondition(
        "no model computed; call Evaluate or use Prepare");
  }
  SEQLOG_ASSIGN_OR_RETURN(PredId pred, catalog_.Find(predicate));
  std::vector<std::vector<SeqId>> rows;
  const Relation* rel = model->Get(pred);
  if (rel != nullptr) {
    rows.reserve(rel->size());
    for (uint32_t i = 0; i < rel->size(); ++i) {
      TupleView row = rel->RowAt(i);
      rows.emplace_back(row.begin(), row.end());
    }
  }
  return rows;
}

Result<std::vector<RenderedRow>> Engine::Query(
    std::string_view predicate) const {
  SEQLOG_ASSIGN_OR_RETURN(std::vector<std::vector<SeqId>> id_rows,
                          QueryIds(predicate));
  std::vector<RenderedRow> rows;
  rows.reserve(id_rows.size());
  for (const auto& id_row : id_rows) {
    RenderedRow row;
    row.reserve(id_row.size());
    for (SeqId id : id_row) row.push_back(pool_.Render(id, symbols_));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace seqlog
