// seqlog: product-composition fusion of transducer network chains.
//
// An order-<=2 network path A -> B (A's output tape feeding B's input
// tape, nothing else reading A) is a candidate for fusion: because B is
// a one-way machine consuming its input left to right, it can consume
// A's output symbol by symbol as A emits it, without the intermediate
// sequence ever being materialised or interned. FuseChain builds that
// lockstep product: states are (state of A, state of B) pairs, one fused
// step reads one chain-input symbol, runs A's transition, and pushes
// A's emission (0 or 1 symbols) through B.
//
// Soundness is guarded twice, in a refuse-and-fallback shape: a
// structural pre-check
// refuses machines the product cannot express (multi-input machines,
// subtransducer calls — a callee would need the unmaterialised
// intermediate tape), and a bounded exhaustive equivalence check replays
// the fused machine against the node-by-node composition on every short
// input before the fusion is accepted. Refusals are
// Status::FailedPrecondition with a stable code (determinize.h):
//   SL-E204  unsupported shape for fusion
//   SL-E203  product state budget exceeded
//   SL-E205  equivalence check failed (fused != node-by-node)
// Callers (Network::Compile) fall back to the interpreted node-by-node
// run on any refusal — fusion is an optimisation, never a semantics
// change.
#ifndef SEQLOG_TRANSDUCER_FUSE_H_
#define SEQLOG_TRANSDUCER_FUSE_H_

#include <memory>

#include "analysis/diagnostics.h"
#include "base/result.h"
#include "transducer/determinize.h"
#include "transducer/transducer.h"

namespace seqlog {
namespace transducer {

struct FuseOptions {
  size_t max_states = 1u << 14;     ///< product-state budget (SL-E203)
  size_t verify_max_length = 6;     ///< equivalence check: input lengths
  size_t verify_max_inputs = 4096;  ///< equivalence check: input budget
};

struct FuseStats {
  size_t states_out = 0;       ///< reachable product states
  size_t verified_inputs = 0;  ///< inputs replayed by the check
};

/// Fuses the chain `first` -> `second` over the chain-input alphabet
/// `alphabet` into one deterministic machine computing
/// second(first(x)) — including agreement on where the composition is
/// undefined (either machine stuck). `second` is grounded over the
/// symbols `first` can emit, so the two machines may speak different
/// alphabets (e.g. DNA -> RNA -> protein).
Result<std::shared_ptr<const DetTransducer>> FuseChain(
    const Transducer& first, const Transducer& second,
    std::span<const Symbol> alphabet, const FuseOptions& options = {},
    FuseStats* stats = nullptr,
    analysis::DiagnosticReport* report = nullptr);

}  // namespace transducer
}  // namespace seqlog

#endif  // SEQLOG_TRANSDUCER_FUSE_H_
