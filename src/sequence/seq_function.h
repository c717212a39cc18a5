// seqlog: interpreted sequence functions.
//
// Transducer Datalog (Section 7) interprets function terms @T(s1,...,sm)
// as the output of a machine on the argument sequences. The evaluator
// only needs this abstract interface; generalized sequence transducers
// (src/transducer) implement it, and tests plug in ad-hoc functions.
#ifndef SEQLOG_SEQUENCE_SEQ_FUNCTION_H_
#define SEQLOG_SEQUENCE_SEQ_FUNCTION_H_

#include <cstdint>
#include <span>
#include <string>

#include "base/result.h"
#include "sequence/sequence_pool.h"

namespace seqlog {

/// Counters describing the compiled-machine backing of @T(...) terms
/// (src/transducer/compile.h, Network::Compile). Aggregated
/// over a FunctionRegistry into EvalStats::transducer and shown by the
/// shell's :stats. The *_runs counters are cumulative over the function's
/// lifetime, not per evaluation.
struct TransducerStats {
  size_t machines_compiled = 0;  ///< deterministic machines backing terms
  size_t states_in = 0;          ///< states of the machines lowered
  size_t states_out = 0;         ///< dense DetTransducer states after
  size_t fusion_hits = 0;        ///< network chains fused into one machine
  size_t fusion_fallbacks = 0;   ///< chains refused (node-by-node fallback)
  size_t compiled_nodes = 0;     ///< network nodes backed by a DetTransducer
  size_t interpreted_nodes = 0;  ///< network nodes on the interpreted path
  uint64_t compiled_node_runs = 0;     ///< node executions, compiled path
  uint64_t interpreted_node_runs = 0;  ///< node executions, interpreted path

  void MergeFrom(const TransducerStats& o) {
    machines_compiled += o.machines_compiled;
    states_in += o.states_in;
    states_out += o.states_out;
    fusion_hits += o.fusion_hits;
    fusion_fallbacks += o.fusion_fallbacks;
    compiled_nodes += o.compiled_nodes;
    interpreted_nodes += o.interpreted_nodes;
    compiled_node_runs += o.compiled_node_runs;
    interpreted_node_runs += o.interpreted_node_runs;
  }
  /// True when any machine was compiled or any fusion was attempted —
  /// the shell only prints the transducer section then.
  bool Any() const {
    return machines_compiled > 0 || fusion_hits > 0 ||
           fusion_fallbacks > 0 || interpreted_node_runs > 0;
  }
};

/// A total or partial mapping (Sigma*)^m -> Sigma*.
class SequenceFunction {
 public:
  virtual ~SequenceFunction() = default;

  /// Name used in @name(...) terms.
  virtual const std::string& name() const = 0;

  /// Number of input sequences (m >= 1).
  virtual size_t NumInputs() const = 0;

  /// The order of the machine (Definition 7); 1 for ordinary transducers.
  /// Determines the complexity guarantees of strongly safe programs
  /// (Theorems 8 and 9).
  virtual int Order() const = 0;

  /// Computes the output for `inputs` (each a pool id), interning the
  /// result in `pool`.
  ///
  /// Contract: kFailedPrecondition means the machine's (partial)
  /// transition function is undefined on this input; the evaluator treats
  /// the function term as undefined and derives nothing. Any other error
  /// (e.g. kResourceExhausted for outputs over an internal limit) aborts
  /// evaluation.
  virtual Result<SeqId> Apply(std::span<const SeqId> inputs,
                              SequencePool* pool) const = 0;

  /// Merges this function's compilation/run counters into `out`.
  /// Interpreted machines report nothing (the default); compiled
  /// machines (transducer::DetTransducer) and compiled networks
  /// (transducer::TransducerNetwork after Compile) override.
  virtual void CollectStats(TransducerStats* out) const {
    (void)out;
  }
};

}  // namespace seqlog

#endif  // SEQLOG_SEQUENCE_SEQ_FUNCTION_H_
