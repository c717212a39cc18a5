// seqlog: the public facade.
//
// Engine bundles a symbol table, sequence pool, predicate catalog,
// transducer registry, database and evaluator behind one object:
//
//   seqlog::Engine engine;
//   engine.LoadProgram("suffix(X[N:end]) :- r(X).");
//   engine.AddFact("r", {"acgt"});
//   auto outcome = engine.Evaluate();
//   auto rows = engine.Query("suffix");
//
// Repeated goal-directed queries use the prepared/snapshot API
// (core/prepared_query.h, core/snapshot.h, core/result_set.h):
//
//   auto pq = engine.Prepare("?- suffix($1).");
//   Snapshot snap = engine.PublishSnapshot();
//   pq->Bind(1, "acgt");
//   ResultSet rs = pq->Execute(snap);   // thread-safe, cursor results
//
// Transducer Datalog programs additionally register machines:
//
//   engine.RegisterTransducer(transducer::MakeSquare("square").value());
//   engine.LoadProgram("sq(@square(X)) :- r(X).");
#ifndef SEQLOG_CORE_ENGINE_H_
#define SEQLOG_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.h"
#include "analysis/safety.h"
#include "ast/clause.h"
#include "base/result.h"
#include "core/prepared_query.h"
#include "core/result_set.h"
#include "core/snapshot.h"
#include "eval/engine.h"
#include "eval/function_registry.h"
#include "ivm/incremental_model.h"
#include "ivm/ingest_queue.h"
#include "parser/parser.h"
#include "query/solver.h"
#include "sequence/domain.h"
#include "sequence/sequence_pool.h"
#include "sequence/symbol_table.h"
#include "storage/database.h"

namespace seqlog {

/// One query result row: rendered sequences (Render semantics: single
/// character symbols concatenated, longer names in <...>).
using RenderedRow = std::vector<std::string>;

class Engine {
 public:
  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SymbolTable* symbols() { return &symbols_; }
  SequencePool* pool() { return &pool_; }
  Catalog* catalog() { return &catalog_; }
  eval::FunctionRegistry* registry() { return &registry_; }

  /// Registers a machine (or network) for @name(...) terms. Must be
  /// called before LoadProgram of a program using the name.
  Status RegisterTransducer(std::shared_ptr<const SequenceFunction> fn);

  /// Parses, validates and compiles a program (replacing any previous
  /// one). Prepared queries created against the previous program keep
  /// answering over it; re-Prepare them.
  Status LoadProgram(std::string_view text);
  /// Same from an already-built AST.
  Status LoadProgramAst(const ast::Program& program);

  const ast::Program& program() const { return program_; }

  /// Lint findings accumulated by the last successful LoadProgram
  /// (body-only predicates are treated as extensional, since AddFact may
  /// populate them after the load). Errors never appear here — programs
  /// with lint errors still fail LoadProgram through ast::Validate.
  const analysis::DiagnosticReport& diagnostics() const {
    return diagnostics_;
  }

  /// Adds a database fact; each argument string is interned one symbol
  /// per character (use AddFactIds for multi-character symbols). Writes
  /// the EDB and nothing else: a model computed earlier stays as it was
  /// until DrainIngest catches it up from the EDB rows it has not
  /// absorbed.
  Status AddFact(std::string_view predicate,
                 const std::vector<std::string>& args);
  Status AddFactIds(std::string_view predicate, std::vector<SeqId> args);
  /// Drops all database facts (the program stays loaded). Published
  /// snapshots are unaffected (they own their copy). Retractions cannot
  /// be re-saturated (deltas are insert-only), so a live model is
  /// invalidated and the next DrainIngest recomputes cold, flagging
  /// EvalStats::cold_fallback.
  void ClearFacts();
  const Database& edb() const { return *edb_; }

  // ------------------------------------------------------------------
  // Live ingest (src/ivm/): writers stage, one consumer moves the staged
  // facts into the EDB.
  // ------------------------------------------------------------------

  /// Stages a fact on the ingest queue WITHOUT touching the EDB — safe
  /// from any thread concurrently with snapshot readers (interning is
  /// shared_mutex-guarded; the queue is MPSC), which is how serve
  /// sessions handle FACT/INGEST. The fact reaches the EDB at the next
  /// PublishSnapshot, DrainIngest or Evaluate. kResourceExhausted when
  /// the queue is full (backpressure).
  Status EnqueueFact(std::string_view predicate,
                     const std::vector<std::string>& args);
  Status EnqueueFactIds(std::string_view predicate,
                        std::vector<SeqId> args);

  /// Moves every staged fact into the EDB, then brings the model to the
  /// fixpoint from the EDB rows it has not absorbed — incrementally via
  /// ivm::IncrementalModel::Apply when a live model exists, cold (with
  /// EvalStats::cold_fallback set) after ClearFacts or a failed run.
  /// Without a model (Evaluate never ran) it only moves the facts.
  /// Single-consumer: call from one thread at a time, never
  /// concurrently with other Engine mutations.
  eval::EvalOutcome DrainIngest(const eval::EvalOptions& options = {});

  ivm::IngestQueue* ingest_queue() { return &ingest_; }
  const ivm::IncrementalModel& live_model() const { return live_model_; }

  // ------------------------------------------------------------------
  // Prepared queries & snapshots — the execute-many query surface.
  // Object lifetimes: Engine ⊃ PreparedQuery, Engine ⊃ Snapshot ⊃
  // ResultSet (see src/core/README.md).
  // ------------------------------------------------------------------

  /// Parses `goal` (which may contain `$N` parameters, e.g.
  /// "?- suffix($1).") once, runs adornment + magic rewrite once, and
  /// compiles the rewrite once. The returned query's Execute answers the
  /// goal over the live EDB or any snapshot with zero parsing and zero
  /// rewriting per call; Bind swaps parameter values (= the magic seed
  /// fact) between calls. Errors: kInvalidArgument (syntax, arity,
  /// parameter misuse), kNotFound (unknown extensional predicate),
  /// kFailedPrecondition (goal not demand-evaluable, see query/solver.h).
  Result<PreparedQuery> Prepare(std::string_view goal);

  /// Moves every staged fact into the EDB and publishes an immutable
  /// snapshot of it (copy-on-publish: deep copy now; republishing an
  /// unchanged EDB reuses the previous copy). Concurrent readers Execute
  /// against the snapshot while this engine keeps accepting AddFact.
  /// The model is not touched: it catches up at the next DrainIngest.
  Snapshot PublishSnapshot();

  /// Static analysis of the loaded program (Definitions 8-10).
  analysis::SafetyReport AnalyzeSafety() const;

  /// Computes the least fixpoint over the current database (staged
  /// ingest-queue facts are moved into the EDB first). The model is
  /// kept — paired with its extended active domain — for Query and for
  /// incremental DrainIngest until the next Evaluate/LoadProgram.
  eval::EvalOutcome Evaluate(const eval::EvalOptions& options = {});

  /// The computed interpretation (null before Evaluate): the fixpoint
  /// as of the last Evaluate or DrainIngest. Facts added since reach it
  /// at the next DrainIngest.
  const Database* model() const { return live_model_.model(); }

  /// All tuples of `predicate` in the computed model, rendered; rows are
  /// sorted for deterministic comparison. kFailedPrecondition before the
  /// first Evaluate. Reads the model; for point queries prefer Prepare +
  /// Execute (demand evaluation, cursor results).
  Result<std::vector<RenderedRow>> Query(std::string_view predicate) const;
  /// Raw SeqId rows.
  Result<std::vector<std::vector<SeqId>>> QueryIds(
      std::string_view predicate) const;

  /// Renders one pool sequence (convenience for tests/examples).
  std::string Render(SeqId id) const { return pool_.Render(id, symbols_); }

 private:
  /// Moves every staged fact into the EDB; returns how many were staged.
  /// A staged fact always inserts: EnqueueFactIds checked its predicate
  /// and arity against the catalog (CHECKed here).
  size_t FlushIngest();

  SymbolTable symbols_;
  SequencePool pool_;
  Catalog catalog_;
  eval::FunctionRegistry registry_;
  std::unique_ptr<Database> edb_;
  ast::Program program_;
  analysis::DiagnosticReport diagnostics_;
  std::unique_ptr<eval::Evaluator> evaluator_;
  /// The saturated model + domain pair (replaces the old bare model_);
  /// declared after evaluator_ — the constructor wires them in order.
  ivm::IncrementalModel live_model_;
  /// Staged insertions awaiting FlushIngest.
  ivm::IngestQueue ingest_;
  /// Set when the live model can no longer be extended incrementally
  /// (ClearFacts retraction, failed Apply): the next DrainIngest
  /// recomputes cold and flags EvalStats::cold_fallback.
  bool ivm_cold_pending_ = false;
  bool program_loaded_ = false;
  /// Bumped on every EDB mutation; drives snapshot copy-on-publish.
  uint64_t edb_version_ = 0;
  /// Cache of the most recent publication (reused while unchanged). The
  /// domain is built incrementally: the row watermark marks the rows
  /// already rooted at the previous publish (facts are append-only;
  /// ClearFacts resets all three).
  std::shared_ptr<const Database> published_;
  std::shared_ptr<const ExtendedDomain> published_domain_;
  Database::Watermark published_row_watermark_;
  uint64_t published_version_ = 0;
};

}  // namespace seqlog

#endif  // SEQLOG_CORE_ENGINE_H_
