// seqlog: acyclic transducer networks (Section 6.2).
//
// A network wires transducer outputs to transducer inputs. Acyclicity is
// guaranteed by construction: a node's inputs may only reference network
// inputs or earlier nodes. The network's complexity parameters are its
// *diameter* (longest node path from an input to the output, bounding the
// number of transformations a sequence undergoes) and its *order* (the
// maximum machine order). Theorem 4 bounds output sizes by these two
// parameters; Theorems 5 and 6 characterise order-2 networks as PTIME
// and order-3 networks as elementary.
//
// Networks implement SequenceFunction, so a whole network can back a
// @name(...) term in Transducer Datalog.
//
// Networks are no longer always interpreted: Compile() lowers eligible
// nodes onto dense deterministic machines and fuses two-node chains into
// a single product machine (compile.h), so a @T(...) hot path costs one
// table walk per input symbol instead of a pattern scan per node per
// step. Nodes the lowering refuses (multi-input wiring, subtransducer
// calls, the product state budget) keep the node-by-node interpreted
// run — compilation never changes semantics, only speed.
#ifndef SEQLOG_TRANSDUCER_NETWORK_H_
#define SEQLOG_TRANSDUCER_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "base/result.h"
#include "transducer/compile.h"
#include "transducer/transducer.h"

namespace seqlog {
namespace transducer {

/// Where one transducer input comes from.
struct InputSource {
  enum class Kind { kNetworkInput, kNode };
  Kind kind = Kind::kNetworkInput;
  size_t index = 0;

  static InputSource FromNetwork(size_t i) {
    return InputSource{Kind::kNetworkInput, i};
  }
  static InputSource FromNode(size_t node) {
    return InputSource{Kind::kNode, node};
  }
};

/// Knobs of Network::Compile.
struct NetworkCompileOptions {
  bool enable_fusion = true;  ///< false: per-node compilation only
};

/// A single-output acyclic network of generalized transducers.
class TransducerNetwork : public SequenceFunction {
 public:
  TransducerNetwork(std::string name, size_t num_network_inputs)
      : name_(std::move(name)), num_inputs_(num_network_inputs) {}

  /// Adds a node running `machine` on the given sources. Sources must
  /// reference network inputs or already-added nodes (checked). Returns
  /// the node id.
  Result<size_t> AddNode(std::shared_ptr<const Transducer> machine,
                         std::vector<InputSource> inputs);

  /// Designates the node whose output is the network output.
  Status SetOutput(size_t node);

  // SequenceFunction:
  const std::string& name() const override { return name_; }
  size_t NumInputs() const override { return num_inputs_; }
  /// Maximum order of any machine in the network (Section 6.2).
  int Order() const override;
  Result<SeqId> Apply(std::span<const SeqId> inputs,
                      SequencePool* pool) const override;

  /// Apply with step statistics accumulated over all nodes.
  Result<SeqId> Run(std::span<const SeqId> inputs, SequencePool* pool,
                    RunStats* stats) const;

  /// Longest node path ending at the output node (1 for a single
  /// transducer).
  size_t Diameter() const;

  size_t num_nodes() const { return nodes_.size(); }

  /// Compiles the network for inputs over `alphabet`: fuses two-node
  /// chains (a node whose output feeds exactly one single-input
  /// successor) into one product machine via FuseChain, and lowers the
  /// remaining single-input order-1 nodes onto dense DetTransducers via
  /// CompileSingle. Nodes the lowering refuses — and every
  /// node downstream of a machine whose output alphabet cannot be
  /// bounded (subtransducer calls) — keep the interpreted run;
  /// per-refusal diagnostics land in `report` when non-null, and the
  /// fusion_hits/fusion_fallbacks split is in compile_stats(). An
  /// alphabet holding the marker or a symbol >= 2^20 is
  /// kInvalidArgument.
  ///
  /// Call once, before the network is shared across threads (typically
  /// right before Engine::RegisterTransducer); Run stays const and
  /// thread-safe afterwards. Compiling again replaces the plan.
  Status Compile(std::span<const Symbol> alphabet,
                 const NetworkCompileOptions& options = {},
                 analysis::DiagnosticReport* report = nullptr);

  bool compiled() const { return !plan_.empty(); }

  /// Compile-time decisions and machine sizes (zero before Compile).
  /// The *_node_runs counters are reported by CollectStats, not here.
  const TransducerStats& compile_stats() const { return compile_stats_; }

  void CollectStats(TransducerStats* out) const override;

 private:
  struct Node {
    std::shared_ptr<const Transducer> machine;
    std::vector<InputSource> inputs;
  };

  /// One node of the compiled execution plan.
  struct PlanNode {
    enum class Mode : uint8_t {
      kInterpreted,  ///< run the original pattern machine
      kCompiled,     ///< run `det` (single node or a fused chain)
      kFusedAway,    ///< consumed by the successor's fused machine
    };
    Mode mode = Mode::kInterpreted;
    std::shared_ptr<const DetTransducer> det;
    /// Effective sources: a fused node reads the fused-away
    /// predecessor's sources directly.
    std::vector<InputSource> inputs;
  };

  std::string name_;
  size_t num_inputs_;
  std::vector<Node> nodes_;
  size_t output_node_ = 0;
  bool output_set_ = false;
  /// Non-empty after Compile; parallel to nodes_.
  std::vector<PlanNode> plan_;
  TransducerStats compile_stats_;
  /// Node executions on each path, cumulative over the network's
  /// lifetime (relaxed: counters only, no ordering required).
  mutable std::atomic<uint64_t> compiled_node_runs_{0};
  mutable std::atomic<uint64_t> interpreted_node_runs_{0};
};

}  // namespace transducer
}  // namespace seqlog

#endif  // SEQLOG_TRANSDUCER_NETWORK_H_
