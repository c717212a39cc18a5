// seqlog: prepared (parameterized) goals.
//
// A PreparedQuery is the compile-once/execute-many form of a goal for
// the paper's point-query workloads (suffix membership, genome lookups —
// programs interrogated millions of times with varying constants):
//
//   auto pq = engine.Prepare("?- suffix($1).");
//   pq->Bind(1, "acgt");
//   ResultSet rs = pq->Execute();          // against the live EDB
//   pq->Bind(1, "tacg");
//   rs = pq->Execute(engine.PublishSnapshot());   // against a snapshot
//
// Prepare parses the goal ONCE, adorns and magic-rewrites the program
// ONCE (query/solver.h), and compiles the rewritten program ONCE into a
// cached evaluator. Every execution — one binding through Execute or
// ExecuteWith, many through ExecuteBatch — runs query::Solver::Execute,
// which only injects the magic *seed facts*: rebinding a parameter never
// re-parses, never re-rewrites, never recompiles; the stats() counters
// prove it (goal_parses and magic_rewrites stay at their prepare-time
// values while executions grows).
//
// Threading: Bind mutates shared state — bind before handing the query
// to worker threads. Execute(snapshot), ExecuteWith and ExecuteBatch are
// const and thread-safe: many threads may execute one PreparedQuery
// against one (or several) snapshots concurrently while the engine keeps
// accepting facts. Execute() against the live EDB is NOT safe against
// concurrent AddFact.
//
// Lifetime: a PreparedQuery borrows the Engine's catalog/pool/registry
// and must not outlive it. Loading a different program into the engine
// does not retarget existing prepared queries — they keep answering over
// the program they were prepared against; re-Prepare after LoadProgram.
#ifndef SEQLOG_CORE_PREPARED_QUERY_H_
#define SEQLOG_CORE_PREPARED_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.h"
#include "base/result.h"
#include "core/result_set.h"
#include "core/snapshot.h"
#include "query/solver.h"

namespace seqlog {

class Engine;

/// Counters proving what the prepared path does (and does not) do.
struct PreparedQueryStats {
  size_t goal_parses = 0;     ///< 1 after Prepare, never grows
  size_t magic_rewrites = 0;  ///< 1 after Prepare (0 for EDB goals)
  size_t plan_compilations = 0;  ///< 1 after Prepare (0 for EDB goals)
  uint64_t executions = 0;    ///< grows with every binding answered
};

/// The answers of one ExecuteBatch call, in binding order.
struct BatchResultSet {
  /// kInvalidArgument for an invalid snapshot, else the run's status
  /// (per-binding failures do NOT fail the batch; see the per-ResultSet
  /// statuses).
  Status status;
  std::vector<ResultSet> results;
  /// Fixpoint runs performed: 1, or 0 for an extensional goal, an empty
  /// batch or one whose bindings all failed.
  size_t runs = 0;
};

/// One goal shape, parsed/adorned/rewritten/compiled once by
/// Engine::Prepare. Movable, not copyable.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) noexcept;
  PreparedQuery& operator=(PreparedQuery&&) noexcept;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;
  ~PreparedQuery();

  /// The goal text this query was prepared from.
  const std::string& goal() const;
  /// Number of `$N` parameters in the goal.
  size_t param_count() const;
  /// Effective goal adornment (after bindable demotion, query/adornment.h).
  const query::Adornment& goal_adornment() const;

  /// Preparation warnings (analysis/lint.h, SL-W051): bound goal
  /// arguments demoted to free, predicting execution cost closer to a
  /// full fixpoint than a point lookup. Empty for fully-bindable goals.
  const std::vector<analysis::Diagnostic>& warnings() const;

  /// Binds parameter `$param` (1-based) to the sequence of `value`'s
  /// characters (interned like Engine::AddFact arguments). Rebinding
  /// overwrites. kOutOfRange for an unknown parameter index. Not
  /// thread-safe against concurrent Execute.
  Status Bind(size_t param, std::string_view value);
  /// Same with an already-interned sequence.
  Status BindId(size_t param, SeqId value);

  /// Executes against the engine's *live* EDB. Zero parsing, zero
  /// rewriting, zero compilation — seed injection + cached-program
  /// fixpoint only. kFailedPrecondition if a parameter is unbound. Not
  /// safe against concurrent AddFact; use the snapshot overload for
  /// concurrent readers.
  ResultSet Execute(const query::SolveOptions& options = {}) const;

  /// Executes against a published snapshot. Const and thread-safe: many
  /// threads may share one PreparedQuery and one Snapshot.
  ResultSet Execute(const Snapshot& snapshot,
                    const query::SolveOptions& options = {}) const;

  /// Executes against a published snapshot with per-call parameter
  /// values (`params[i]` binds `$i+1`) instead of the shared Bind state,
  /// which is neither read nor written — kFailedPrecondition when an
  /// entry is missing. Const and thread-safe even while other threads
  /// Bind: the serving tier's per-session execution path
  /// (src/serve/server.h) — many sessions share one PreparedQuery and
  /// never touch its Bind state.
  ResultSet ExecuteWith(const Snapshot& snapshot,
                        const std::vector<std::optional<SeqId>>& params,
                        const query::SolveOptions& options = {}) const;

  /// Executes every binding of `bindings` (each like ExecuteWith's
  /// `params`) against a published snapshot in ONE fixpoint run.
  /// results[i] is answer-identical to ExecuteWith(snapshot,
  /// bindings[i]) under the parity condition of docs/SERVING.md; only
  /// the run counters are shared. Const and thread-safe like
  /// ExecuteWith. An empty batch returns OK with no results and zero
  /// runs.
  BatchResultSet ExecuteBatch(const Snapshot& snapshot,
                              std::span<const query::Binding> bindings,
                              const query::SolveOptions& options = {}) const;

  /// Prepare/execution counters (see struct comment).
  PreparedQueryStats stats() const;

 private:
  friend class Engine;
  struct Impl;
  /// The one execution path: query::Solver::Execute over `db` for every
  /// binding, wrapped in ResultSets that pin `keepalive`. Every public
  /// Execute* is a thin call into it.
  BatchResultSet Run(const Database& db,
                     std::shared_ptr<const ExtendedDomain> base_domain,
                     std::shared_ptr<const Database> keepalive,
                     std::span<const query::Binding> bindings,
                     const query::SolveOptions& options) const;
  explicit PreparedQuery(std::unique_ptr<Impl> impl);
  /// Factory for Engine::Prepare (Impl is defined in the .cc).
  static PreparedQuery Create(Engine* engine, std::string goal_text,
                              query::PreparedGoal prepared,
                              std::vector<analysis::Diagnostic> warnings);

  std::unique_ptr<Impl> impl_;
};

}  // namespace seqlog

#endif  // SEQLOG_CORE_PREPARED_QUERY_H_
