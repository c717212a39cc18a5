// seqlog: lowering order-1 transducers onto dense deterministic tables.
//
// The interpreted machine (transducer.h) pays a pattern scan per step.
// This module lowers single-input order-1 machines into a DetTransducer:
// a dense (state x alphabet) table walked once per input symbol. There
// is one lowering, shared by both entry points: ground each machine's
// first-match-wins table over the alphabet once, then number the
// configurations reachable from the initial one breadth-first, scanning
// the alphabet in sorted order. For CompileSingle a configuration is a
// state of the one table; for FuseChain it is a pair of states of two
// tables run in lockstep, so a chain A -> B compiles to one machine that
// never materialises or interns A's output.
//
// Why the tables are exact. Definition 7 restriction (i), with m = 1,
// makes every row advance the only head; restriction (ii) makes a row
// that may scan the marker stay. So no single-input row scans the
// marker (builder.h): each step consumes exactly one symbol, and a run
// halts exactly at the end of its input. Every state is therefore final
// with an empty final word, and EnumerateGroundTransitions, which keeps
// first-match-wins priority, gives the machine's exact table over the
// alphabet. For a chain, B reads A's output left to right, one symbol
// per step, so pushing each of A's emissions (at most one symbol, since
// A is order 1) through B as it appears reaches exactly the
// configurations of B run on A's whole output; the composition is
// undefined exactly when A or B is stuck. Hence the fused table equals
// second(first(x)) on every input over the alphabet. No run-time check
// is needed or made.
//
// Refusals are Status::FailedPrecondition carrying a stable SL- code
// (analysis/diagnostics.h), so callers can fall back to the interpreted
// path and surface the reason:
//   SL-E200  CompileSingle: not a single-input order-1 machine
//   SL-E203  more than kMaxProductStates reachable configurations
//   SL-E204  FuseChain: a multi-input or order >= 2 machine in the chain
// An alphabet holding the marker or a symbol >= 2^20 is an invalid
// argument, not a refusal.
#ifndef SEQLOG_TRANSDUCER_COMPILE_H_
#define SEQLOG_TRANSDUCER_COMPILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "base/result.h"
#include "sequence/seq_function.h"
#include "transducer/transducer.h"

namespace seqlog {
namespace transducer {

/// Stable diagnostic codes of the lowering.
inline constexpr char kCodeUnsupportedShape[] = "SL-E200";
inline constexpr char kCodeStateBudget[] = "SL-E203";
inline constexpr char kCodeFusionUnsupported[] = "SL-E204";

/// Most reachable configurations one lowering may number (SL-E203). Only
/// a product of two machines can plausibly reach it.
inline constexpr size_t kMaxProductStates = size_t{1} << 14;

/// A compiled deterministic sequence transducer: dense transition table,
/// O(1) per input symbol, no pattern scan, no allocation per step beyond
/// the output buffer. Implements SequenceFunction (single input,
/// order 1), so compiled machines back @T(...) terms directly.
///
/// Immutable after construction; safe to share across threads.
class DetTransducer : public SequenceFunction {
 public:
  static constexpr uint32_t kStuck = UINT32_MAX;

  /// Construction input (built by CompileSingle and FuseChain).
  struct Spec {
    struct Cell {
      uint32_t next = kStuck;  ///< kStuck = undefined (partial machine)
      std::vector<Symbol> out;
    };
    std::string name;
    std::vector<Symbol> alphabet;  ///< sorted, unique, no kEndMarker
    size_t num_states = 0;
    uint32_t initial = 0;
    std::vector<Cell> cells;  ///< dense num_states * alphabet.size()
    size_t source_states = 0;  ///< states of the machine compiled from
  };
  static std::shared_ptr<const DetTransducer> FromSpec(Spec spec);

  // SequenceFunction:
  const std::string& name() const override { return name_; }
  size_t NumInputs() const override { return 1; }
  int Order() const override { return 1; }
  Result<SeqId> Apply(std::span<const SeqId> inputs,
                      SequencePool* pool) const override;
  void CollectStats(TransducerStats* out) const override;

  /// Pool-free core: transduces `input` into `*out` (cleared first).
  /// False when the machine is undefined on `input` (stuck mid-way or
  /// an out-of-alphabet symbol).
  bool Transduce(std::span<const Symbol> input,
                 std::vector<Symbol>* out) const;

  size_t num_states() const { return num_states_; }
  size_t source_states() const { return source_states_; }
  const std::vector<Symbol>& alphabet() const { return alphabet_; }

 private:
  struct Cell {
    uint32_t next = kStuck;
    uint32_t out_begin = 0;
    uint32_t out_len = 0;
  };

  DetTransducer() = default;

  /// Dense alphabet index of `s`, or kStuck when out of alphabet.
  uint32_t SymIndex(Symbol s) const {
    return s < sym_index_.size() ? sym_index_[s] : kStuck;
  }

  std::string name_;
  std::vector<Symbol> alphabet_;
  std::vector<uint32_t> sym_index_;  ///< symbol -> alphabet index
  size_t num_states_ = 0;
  uint32_t initial_ = 0;
  std::vector<Cell> table_;  ///< num_states_ * alphabet_.size()
  std::vector<Symbol> out_pool_;  ///< all output words, concatenated
  size_t source_states_ = 0;
};

/// Lowers one single-input order-1 machine over `alphabet` to its dense
/// table: the machine's states reachable from the initial one. SL-E200
/// for other shapes. Network::Compile uses this for nodes it cannot
/// fuse. When `report` is non-null a refusal is also added there as a
/// coded Diagnostic.
Result<std::shared_ptr<const DetTransducer>> CompileSingle(
    const Transducer& machine, std::span<const Symbol> alphabet,
    analysis::DiagnosticReport* report = nullptr);

/// Fuses the chain `first` -> `second` over the chain-input alphabet
/// `alphabet` into one deterministic machine computing
/// second(first(x)) — including agreement on where the composition is
/// undefined (either machine stuck). `second` is grounded over the
/// symbols `first` can emit, so the two machines may speak different
/// alphabets (e.g. DNA -> RNA -> protein). SL-E204 unless both machines
/// are single-input and order 1; SL-E203 past kMaxProductStates pairs.
Result<std::shared_ptr<const DetTransducer>> FuseChain(
    const Transducer& first, const Transducer& second,
    std::span<const Symbol> alphabet,
    analysis::DiagnosticReport* report = nullptr);

}  // namespace transducer
}  // namespace seqlog

#endif  // SEQLOG_TRANSDUCER_COMPILE_H_
