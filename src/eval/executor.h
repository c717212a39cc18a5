// seqlog: clause firing.
//
// ClauseFirer evaluates one compiled clause against an interpretation,
// deriving head facts into an output database. It implements one clause's
// contribution to the T-operator of Definition 4: find every substitution
// theta based on the extended active domain with theta(body) contained in
// the interpretation, and add theta(head) when defined.
//
// For semi-naive evaluation a firing can restrict one predicate literal
// to the delta relation (facts new in the previous iteration).
#ifndef SEQLOG_EVAL_EXECUTOR_H_
#define SEQLOG_EVAL_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "base/status.h"
#include "eval/clause_plan.h"
#include "sequence/domain.h"
#include "sequence/seq_function.h"
#include "storage/database.h"

namespace seqlog {
namespace eval {

/// Evaluation budgets (Theorem 2 makes finiteness undecidable, so every
/// run is budgeted; exceeding any budget yields kResourceExhausted with
/// partial results intact).
struct EvalLimits {
  size_t max_iterations = 100000;
  size_t max_facts = 5'000'000;
  size_t max_domain_sequences = 5'000'000;
  size_t max_sequence_length = 1'000'000;
  int64_t max_millis = 0;  ///< 0 = no deadline.
};

/// Counters reported by an evaluation.
struct EvalStats {
  size_t iterations = 0;
  size_t facts = 0;             ///< atoms in the computed interpretation
  size_t domain_sequences = 0;  ///< extended active domain size (Def. 11)
  size_t derivations = 0;       ///< head emissions attempted
  size_t strata = 0;            ///< stratified strategy only
  double millis = 0;
  /// Wall-clock spent firing clauses. Together with the domain and
  /// relation-merge timers below it accounts for nearly all of `millis`.
  double fire_millis = 0;
  /// Wall-clock spent growing the extended active domain, split by
  /// phase: domain_load_millis covers rooting the EDB/seed facts at run
  /// start, domain_merge_millis rooting new sequences at the round
  /// barriers.
  double domain_load_millis = 0;
  double domain_merge_millis = 0;
  /// Wall-clock of the rest of the round barriers: dedup probes, row
  /// appends and index maintenance of the model and the next delta.
  double relation_merge_millis = 0;
  /// The combined domain time (the pre-split counter's value).
  double domain_millis() const {
    return domain_load_millis + domain_merge_millis;
  }
  /// Live-ingest counters (Evaluator::Resaturate and the src/ivm/
  /// pipeline built on it). Zero on cold Evaluate runs.
  /// Fixpoint rounds run by the incremental re-saturation.
  size_t resaturate_rounds = 0;
  /// Wall-clock of the incremental re-saturation (seed rooting included).
  double resaturate_millis = 0;
  /// EDB rows absorbed that were genuinely new to the model (duplicates
  /// are dropped at the seed, so this is the round-0 delta size). On a
  /// drain that runs no resaturation, the staged facts it moved.
  size_t ingested_facts = 0;
  /// True when a drain could not re-saturate incrementally (retraction
  /// via ClearFacts, or a failed run) and fell back to a cold recompute
  /// of the whole model instead.
  bool cold_fallback = false;
  /// Per-iteration (facts, domain size) when growth tracking is on; used
  /// by the Example 1.5 / 1.6 benchmarks to plot divergence.
  std::vector<std::pair<size_t, size_t>> growth;
  /// Compiled-transducer counters aggregated over the engine's function
  /// registry after the run (Engine::Evaluate / DrainIngest). The
  /// machine/state/fusion fields describe registered machines (stable
  /// across runs); the *_node_runs counters are cumulative over the
  /// engine's lifetime — unlike every counter above, they do grow with
  /// each evaluation.
  TransducerStats transducer;
};

/// Mutable state shared by the clause firings of one iteration.
struct FireContext {
  SequencePool* pool = nullptr;
  const ExtendedDomain* domain = nullptr;
  const Database* full = nullptr;
  const Database* delta = nullptr;  ///< may be null
  Database* out = nullptr;          ///< derived facts accumulate here
  const EvalLimits* limits = nullptr;
  EvalStats* stats = nullptr;
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
  size_t existing_facts = 0;  ///< facts in `full` (for max_facts checks)
  size_t out_new = 0;         ///< facts new to `out` that `full` lacks
  size_t tick = 0;            ///< deadline polling counter
};

/// Fires `plan` once. `delta_step` is the index into plan.steps of the
/// single predicate literal to source from ctx->delta, or SIZE_MAX to
/// source every literal from ctx->full.
Status FireClause(const ClausePlan& plan, size_t delta_step,
                  FireContext* ctx);

}  // namespace eval
}  // namespace seqlog

#endif  // SEQLOG_EVAL_EXECUTOR_H_
