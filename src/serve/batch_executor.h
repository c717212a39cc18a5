// seqlog serving tier: batched prepared execution.
//
// BatchExecutor answers MANY bindings of one or several PreparedQuerys
// in as few semi-naive runs as possible — usually one. The magic seed
// facts of every batch item are injected together, so the fixpoint
// rounds, the clause firings and the extended-active-domain growth are
// paid once for the whole batch and amortised across its items; the
// answers are demultiplexed per item from each goal's answer predicate
// by the item's bound values:
//
//   auto pq = engine.Prepare("?- rnaseq($1, X).");
//   serve::BatchExecutor batch(&engine, {&*pq});
//   std::vector<serve::BatchExecutor::Item> items;
//   for (const std::string& probe : probes) {
//     items.push_back(batch.MakeItem(0, {probe}).value());
//   }
//   auto result = batch.Execute(engine.PublishSnapshot(), items);
//   // result.results[i] == what pq->Bind(1, probes[i]) + Execute returns
//
// The hard invariant (tests/batch_executor_test.cc): every
// result.results[i] is answer-identical — same rows, same order, same
// status — to the i-th of N sequential PreparedQuery executions. Only
// the counters differ: result.stats.evaluations reports how many runs
// the batch actually paid for (1 here, versus N sequential ones).
//
// Several DISTINCT queries batch together too: the executor fuses their
// magic rewrites into one evaluator at construction (clause-level union,
// compiled once — query/solver.h FuseGoals), so a mixed batch still
// costs a single run. When fusing is impossible (the union closes a
// constructive cycle no individual rewrite has) the executor falls back
// to one run per distinct query — still amortised across that query's
// items — and fused() reports false.
//
// Threading: construction is not thread-safe (it may compile a fused
// program into the shared catalog). Execute(snapshot, ...) is const and
// thread-safe under the same contract as PreparedQuery::Execute: many
// threads may share one BatchExecutor and one (or several) snapshots.
//
// Lifetime: borrows the engine and the queries; both must outlive the
// executor. Queries must have been prepared on `engine`.
#ifndef SEQLOG_SERVE_BATCH_EXECUTOR_H_
#define SEQLOG_SERVE_BATCH_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "core/prepared_query.h"
#include "core/result_set.h"
#include "core/snapshot.h"
#include "query/solver.h"

namespace seqlog {

class Engine;

namespace serve {

struct BatchOptions {
  /// Try to fuse distinct queries' rewrites into one evaluator at
  /// construction. Off = always one run per distinct query.
  bool fuse = true;
};

/// Counters of one Execute call (answer-independent bookkeeping).
struct BatchStats {
  size_t items = 0;        ///< batch items answered
  size_t evaluations = 0;  ///< semi-naive runs actually performed
  bool fused = false;      ///< distinct queries shared one compiled program
  eval::EvalStats eval;    ///< aggregate over the runs
};

/// The answers of one batched execution, in item order.
struct BatchResult {
  /// First non-OK run status (per-item failures do NOT fail the batch;
  /// see the per-ResultSet statuses).
  Status status;
  std::vector<ResultSet> results;
  BatchStats stats;
};

class BatchExecutor {
 public:
  /// One batch entry: which query it instantiates (an index into the
  /// constructor's query list) and its `$N` parameter values.
  struct Item {
    size_t query = 0;
    std::vector<std::optional<SeqId>> params;
  };

  /// `queries` are borrowed for the executor's lifetime; all must have
  /// been prepared on `engine`.
  BatchExecutor(Engine* engine,
                std::vector<const PreparedQuery*> queries,
                const BatchOptions& options = {});

  /// Builds an item binding `$1..$k` of query `query` to the characters
  /// of `args` (interned like Engine::AddFact arguments, so batch items
  /// can be built from wire values). kOutOfRange on a bad query index,
  /// kInvalidArgument when args.size() differs from the query's
  /// parameter count.
  Result<Item> MakeItem(size_t query,
                        const std::vector<std::string>& args) const;

  /// Answers every item against `snapshot` — one fixpoint run for the
  /// whole batch when fused() (or when the items instantiate a single
  /// query), else one per distinct query. results[i] is
  /// answer-identical to an individual Execute of item i. Const and
  /// thread-safe. An empty batch returns OK with no results and zero
  /// evaluations.
  BatchResult Execute(const Snapshot& snapshot,
                      const std::vector<Item>& items,
                      const query::SolveOptions& options = {}) const;

  size_t query_count() const { return queries_.size(); }
  /// True when distinct queries share one fused evaluator.
  bool fused() const { return fused_ != nullptr; }
  /// Why fusing was (not) possible — OK when fused() or when there was
  /// nothing to fuse; the FuseGoals error after a fallback.
  const Status& fusion_status() const { return fusion_status_; }

 private:
  Engine* engine_;
  std::vector<const PreparedQuery*> queries_;
  query::Solver solver_;
  std::shared_ptr<const eval::Evaluator> fused_;
  Status fusion_status_;
};

}  // namespace serve
}  // namespace seqlog

#endif  // SEQLOG_SERVE_BATCH_EXECUTOR_H_
