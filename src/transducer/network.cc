#include "transducer/network.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "base/string_util.h"

namespace seqlog {
namespace transducer {

Result<size_t> TransducerNetwork::AddNode(
    std::shared_ptr<const Transducer> machine,
    std::vector<InputSource> inputs) {
  if (machine == nullptr) {
    return Status::InvalidArgument("null machine");
  }
  if (inputs.size() != machine->NumInputs()) {
    return Status::InvalidArgument(
        StrCat("node '", machine->name(), "' needs ",
               machine->NumInputs(), " inputs, got ", inputs.size()));
  }
  for (const InputSource& src : inputs) {
    if (src.kind == InputSource::Kind::kNetworkInput) {
      if (src.index >= num_inputs_) {
        return Status::InvalidArgument(
            StrCat("network input ", src.index, " out of range"));
      }
    } else {
      // Referencing only earlier nodes keeps the network acyclic.
      if (src.index >= nodes_.size()) {
        return Status::InvalidArgument(
            StrCat("node source ", src.index,
                   " must reference an earlier node"));
      }
    }
  }
  nodes_.push_back(Node{std::move(machine), std::move(inputs)});
  return nodes_.size() - 1;
}

Status TransducerNetwork::SetOutput(size_t node) {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument(StrCat("no node ", node));
  }
  output_node_ = node;
  output_set_ = true;
  return Status::Ok();
}

int TransducerNetwork::Order() const {
  int order = 0;
  for (const Node& n : nodes_) {
    order = std::max(order, n.machine->Order());
  }
  return order;
}

Result<SeqId> TransducerNetwork::Apply(std::span<const SeqId> inputs,
                                       SequencePool* pool) const {
  RunStats stats;
  return Run(inputs, pool, &stats);
}

Result<SeqId> TransducerNetwork::Run(std::span<const SeqId> inputs,
                                     SequencePool* pool,
                                     RunStats* stats) const {
  if (!output_set_) {
    return Status::FailedPrecondition(
        StrCat("network '", name_, "' has no output node"));
  }
  if (inputs.size() != num_inputs_) {
    return Status::InvalidArgument(
        StrCat("network '", name_, "' takes ", num_inputs_,
               " inputs, got ", inputs.size()));
  }
  const bool have_plan = !plan_.empty();
  std::vector<SeqId> node_outputs(nodes_.size(), kEmptySeq);
  for (size_t ni = 0; ni < nodes_.size(); ++ni) {
    if (have_plan && plan_[ni].mode == PlanNode::Mode::kFusedAway) {
      continue;  // its work happens inside the successor's fused machine
    }
    const std::vector<InputSource>& sources =
        have_plan ? plan_[ni].inputs : nodes_[ni].inputs;
    std::vector<SeqId> node_inputs;
    node_inputs.reserve(sources.size());
    for (const InputSource& src : sources) {
      node_inputs.push_back(src.kind == InputSource::Kind::kNetworkInput
                                ? inputs[src.index]
                                : node_outputs[src.index]);
    }
    if (have_plan && plan_[ni].mode == PlanNode::Mode::kCompiled) {
      compiled_node_runs_.fetch_add(1, std::memory_order_relaxed);
      SEQLOG_ASSIGN_OR_RETURN(node_outputs[ni],
                              plan_[ni].det->Apply(node_inputs, pool));
    } else {
      interpreted_node_runs_.fetch_add(1, std::memory_order_relaxed);
      SEQLOG_ASSIGN_OR_RETURN(
          node_outputs[ni],
          nodes_[ni].machine->Run(node_inputs, pool, stats, nullptr));
    }
  }
  return node_outputs[output_node_];
}

namespace {

std::vector<Symbol> SortedUnique(std::span<const Symbol> symbols) {
  std::vector<Symbol> out(symbols.begin(), symbols.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Symbol> UnionInto(std::vector<Symbol> base,
                              std::span<const Symbol> more) {
  base.insert(base.end(), more.begin(), more.end());
  return SortedUnique(base);
}

// A sound over-approximation of what an order-1 machine can emit: every
// output is either an emitted constant or an echo of a scanned input
// symbol, so (union of input alphabets) + (constants in the rows) covers
// it. Order >= 2 machines call subtransducers whose outputs this cannot
// bound, so they yield nullopt ("unknown") — downstream nodes then stay
// interpreted.
std::optional<std::vector<Symbol>> OutputAlphabet(
    const Transducer& machine,
    const std::vector<const std::vector<Symbol>*>& input_alphas) {
  if (machine.Order() != 1) return std::nullopt;
  std::vector<Symbol> out;
  for (const std::vector<Symbol>* alpha : input_alphas) {
    if (alpha == nullptr) return std::nullopt;
    out = UnionInto(std::move(out), *alpha);
  }
  for (const Transition& row : machine.transitions()) {
    if (row.output.kind == Output::Kind::kSymbol) {
      out.push_back(row.output.symbol);
    }
  }
  return SortedUnique(out);
}

}  // namespace

Status TransducerNetwork::Compile(std::span<const Symbol> alphabet,
                                  const NetworkCompileOptions& options,
                                  analysis::DiagnosticReport* report) {
  if (!output_set_) {
    return Status::FailedPrecondition(
        StrCat("network '", name_, "' has no output node"));
  }
  plan_.clear();
  compile_stats_ = TransducerStats{};
  const std::vector<Symbol> net_alpha = SortedUnique(alphabet);

  // How many readers each node's output has (the output port counts as
  // one): a node is only fusable into its successor when nothing else
  // would miss the intermediate sequence.
  std::vector<size_t> uses(nodes_.size(), 0);
  for (const Node& node : nodes_) {
    for (const InputSource& src : node.inputs) {
      if (src.kind == InputSource::Kind::kNode) ++uses[src.index];
    }
  }
  ++uses[output_node_];

  // The input alphabet of every source, propagated node by node;
  // nullptr = unknown (an order->=2 producer upstream).
  std::vector<std::optional<std::vector<Symbol>>> out_alpha(nodes_.size());
  auto source_alpha =
      [&](const InputSource& src) -> const std::vector<Symbol>* {
    if (src.kind == InputSource::Kind::kNetworkInput) return &net_alpha;
    return out_alpha[src.index].has_value() ? &*out_alpha[src.index]
                                            : nullptr;
  };

  std::vector<PlanNode> plan(nodes_.size());
  for (size_t ni = 0; ni < nodes_.size(); ++ni) {
    plan[ni].inputs = nodes_[ni].inputs;
  }

  for (size_t ni = 0; ni < nodes_.size(); ++ni) {
    const Node& node = nodes_[ni];
    {
      std::vector<const std::vector<Symbol>*> in_alphas;
      in_alphas.reserve(node.inputs.size());
      for (const InputSource& src : node.inputs) {
        in_alphas.push_back(source_alpha(src));
      }
      out_alpha[ni] = OutputAlphabet(*node.machine, in_alphas);
    }
    if (plan[ni].mode != PlanNode::Mode::kInterpreted) {
      continue;  // already the compiled head of a fused chain
    }

    // Chain fusion: this node's output feeds exactly one successor,
    // which reads nothing else. Order-<=2 paths only — a fused machine
    // is not fused again into a third node.
    if (options.enable_fusion && uses[ni] == 1 &&
        node.inputs.size() == 1) {
      size_t consumer = nodes_.size();
      for (size_t nj = ni + 1; nj < nodes_.size() && consumer == nodes_.size();
           ++nj) {
        for (const InputSource& src : nodes_[nj].inputs) {
          if (src.kind == InputSource::Kind::kNode && src.index == ni) {
            consumer = nj;
            break;
          }
        }
      }
      if (consumer < nodes_.size() && nodes_[consumer].inputs.size() == 1 &&
          plan[consumer].mode == PlanNode::Mode::kInterpreted) {
        const std::vector<Symbol>* chain_alpha =
            source_alpha(node.inputs[0]);
        if (chain_alpha == nullptr) {
          ++compile_stats_.fusion_fallbacks;
        } else {
          Result<std::shared_ptr<const DetTransducer>> fused =
              FuseChain(*node.machine, *nodes_[consumer].machine,
                        *chain_alpha, report);
          if (fused.ok()) {
            plan[ni].mode = PlanNode::Mode::kFusedAway;
            plan[consumer].mode = PlanNode::Mode::kCompiled;
            plan[consumer].det = fused.value();
            plan[consumer].inputs = node.inputs;
            ++compile_stats_.fusion_hits;
            continue;
          }
          if (fused.status().code() != StatusCode::kFailedPrecondition) {
            return fused.status();
          }
          ++compile_stats_.fusion_fallbacks;
        }
      }
    }

    // Per-node compilation of whatever did not fuse.
    if (node.inputs.size() == 1) {
      const std::vector<Symbol>* in_alpha = source_alpha(node.inputs[0]);
      if (in_alpha != nullptr) {
        Result<std::shared_ptr<const DetTransducer>> det =
            CompileSingle(*node.machine, *in_alpha, report);
        if (det.ok()) {
          plan[ni].mode = PlanNode::Mode::kCompiled;
          plan[ni].det = det.value();
          continue;
        }
        if (det.status().code() != StatusCode::kFailedPrecondition) {
          return det.status();
        }
      }
    }
    // Multi-input wiring, unknown input alphabet, or a refusal: the
    // interpreted node-by-node run stays.
  }

  for (const PlanNode& pn : plan) {
    switch (pn.mode) {
      case PlanNode::Mode::kCompiled:
        ++compile_stats_.compiled_nodes;
        pn.det->CollectStats(&compile_stats_);
        break;
      case PlanNode::Mode::kInterpreted:
        ++compile_stats_.interpreted_nodes;
        break;
      case PlanNode::Mode::kFusedAway:
        break;  // accounted through the fused successor
    }
  }
  plan_ = std::move(plan);
  return Status::Ok();
}

void TransducerNetwork::CollectStats(TransducerStats* out) const {
  out->MergeFrom(compile_stats_);
  out->compiled_node_runs +=
      compiled_node_runs_.load(std::memory_order_relaxed);
  out->interpreted_node_runs +=
      interpreted_node_runs_.load(std::memory_order_relaxed);
}

size_t TransducerNetwork::Diameter() const {
  // Longest path (in nodes) ending at each node; inputs have depth 0.
  std::vector<size_t> depth(nodes_.size(), 1);
  for (size_t ni = 0; ni < nodes_.size(); ++ni) {
    for (const InputSource& src : nodes_[ni].inputs) {
      if (src.kind == InputSource::Kind::kNode) {
        depth[ni] = std::max(depth[ni], depth[src.index] + 1);
      }
    }
  }
  return output_set_ && !nodes_.empty() ? depth[output_node_] : 0;
}

}  // namespace transducer
}  // namespace seqlog
