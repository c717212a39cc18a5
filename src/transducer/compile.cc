#include "transducer/compile.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/string_util.h"

namespace seqlog {
namespace transducer {
namespace {

// A refusal is both a coded diagnostic (when the caller wants the
// report) and a kFailedPrecondition whose message leads with the same
// stable code, so fallback sites can branch on the code alone. `kind`
// is "machine" or "chain".
Status Refuse(const char* code, std::string_view kind,
              const std::string& name, std::string message,
              analysis::DiagnosticReport* report) {
  if (report != nullptr) {
    report->Add(code, analysis::Severity::kError, ast::SourceLoc{}, name,
                message);
  }
  return Status::FailedPrecondition(
      StrCat(code, ": ", kind, " '", name, "': ", message));
}

// Largest symbol id we are willing to build a dense symbol->index table
// for. Alphabet symbols come from SymbolTable interning, so they are
// small in practice; the bound keeps kEndMarker out and the table small.
constexpr Symbol kMaxAlphabetSymbol = 1u << 20;

// One machine grounded to a dense (state x alphabet) table; order-1
// single-input rows emit at most one symbol per step.
struct GroundTable {
  struct Cell {
    uint32_t next = DetTransducer::kStuck;
    bool has_out = false;
    Symbol out = 0;
  };
  std::vector<Symbol> alphabet;     // sorted unique
  std::vector<uint32_t> sym_index;  // symbol -> alphabet index
  std::vector<Cell> cells;          // num_states * alphabet.size()
  uint32_t initial = 0;

  const Cell* Find(uint32_t state, Symbol s) const {
    if (s >= sym_index.size()) return nullptr;
    const uint32_t si = sym_index[s];
    if (si == DetTransducer::kStuck) return nullptr;
    const Cell& cell = cells[state * alphabet.size() + si];
    return cell.next == DetTransducer::kStuck ? nullptr : &cell;
  }
};

// The one place an order-1 machine becomes a table: its first-match-wins
// rows expanded over `alphabet`, which is checked here for every caller.
Result<GroundTable> Ground(const Transducer& machine,
                           std::span<const Symbol> alphabet) {
  for (Symbol s : alphabet) {
    if (s >= kMaxAlphabetSymbol) {
      return Status::InvalidArgument(
          StrCat("machine '", machine.name(), "': alphabet symbol ", s,
                 " out of range (marker cannot be an input symbol)"));
    }
  }
  // TransducerBuilder::SetInitial takes any id.
  if (machine.initial_state() >= machine.num_states()) {
    return Status::InvalidArgument(
        StrCat("machine '", machine.name(), "': initial state out of range"));
  }
  GroundTable table;
  table.alphabet.assign(alphabet.begin(), alphabet.end());
  std::sort(table.alphabet.begin(), table.alphabet.end());
  table.alphabet.erase(
      std::unique(table.alphabet.begin(), table.alphabet.end()),
      table.alphabet.end());
  table.initial = machine.initial_state();
  table.sym_index.assign(
      table.alphabet.empty() ? 0 : table.alphabet.back() + 1,
      DetTransducer::kStuck);
  for (size_t i = 0; i < table.alphabet.size(); ++i) {
    table.sym_index[table.alphabet[i]] = static_cast<uint32_t>(i);
  }
  table.cells.assign(machine.num_states() * table.alphabet.size(),
                     GroundTable::Cell{});
  // With one tape the all-marker combination, which the expansion never
  // yields, is the marker itself; echoes come back grounded to Emit, and
  // order 1 means no calls.
  for (const Transducer::GroundTransition& row :
       machine.EnumerateGroundTransitions(table.alphabet)) {
    GroundTable::Cell& cell =
        table.cells[row.from * table.alphabet.size() +
                    table.sym_index[row.scanned[0]]];
    cell.next = row.to;
    cell.has_out = row.output.kind == Output::Kind::kSymbol;
    cell.out = row.output.symbol;
  }
  return table;
}

// A configuration's step on one alphabet symbol.
struct Move {
  uint64_t next = 0;
  bool has_out = false;
  Symbol out = 0;
};

// The breadth-first construction both entry points share: compiled
// states are the configurations reachable from `start`, numbered in
// discovery order with the alphabet scanned in sorted order.
// `step(config, alphabet_index)` is nullopt where the configuration is
// stuck.
template <typename StepFn>
Result<std::shared_ptr<const DetTransducer>> Lower(
    std::string_view kind, std::string name, std::vector<Symbol> alphabet,
    size_t source_states, uint64_t start, StepFn step,
    analysis::DiagnosticReport* report) {
  DetTransducer::Spec spec;
  spec.name = std::move(name);
  spec.alphabet = std::move(alphabet);
  spec.source_states = source_states;
  const size_t width = spec.alphabet.size();

  // Numbering in discovery order makes the numbers themselves the
  // breadth-first worklist.
  std::vector<uint64_t> configs{start};
  std::unordered_map<uint64_t, uint32_t> ids{{start, 0}};
  for (size_t si = 0; si < configs.size(); ++si) {
    spec.cells.resize(spec.cells.size() + width);
    for (size_t ai = 0; ai < width; ++ai) {
      const std::optional<Move> move = step(configs[si], ai);
      if (!move.has_value()) continue;
      auto [it, inserted] =
          ids.emplace(move->next, static_cast<uint32_t>(configs.size()));
      if (inserted) {
        if (configs.size() >= kMaxProductStates) {
          return Refuse(kCodeStateBudget, kind, spec.name,
                        StrCat("more than ", kMaxProductStates,
                               " reachable states"),
                        report);
        }
        configs.push_back(move->next);
      }
      DetTransducer::Spec::Cell& cell = spec.cells[si * width + ai];
      cell.next = it->second;
      if (move->has_out) cell.out.push_back(move->out);
    }
  }
  spec.num_states = configs.size();
  spec.initial = 0;
  return DetTransducer::FromSpec(std::move(spec));
}

}  // namespace

std::shared_ptr<const DetTransducer> DetTransducer::FromSpec(Spec spec) {
  auto m = std::shared_ptr<DetTransducer>(new DetTransducer());
  m->name_ = std::move(spec.name);
  m->alphabet_ = std::move(spec.alphabet);
  m->num_states_ = spec.num_states;
  m->initial_ = spec.initial;
  m->source_states_ = spec.source_states;

  Symbol max_sym = 0;
  for (Symbol s : m->alphabet_) max_sym = std::max(max_sym, s);
  m->sym_index_.assign(m->alphabet_.empty() ? 0 : max_sym + 1, kStuck);
  for (size_t i = 0; i < m->alphabet_.size(); ++i) {
    m->sym_index_[m->alphabet_[i]] = static_cast<uint32_t>(i);
  }

  m->table_.resize(spec.cells.size());
  for (size_t i = 0; i < spec.cells.size(); ++i) {
    m->table_[i].next = spec.cells[i].next;
    m->table_[i].out_begin = static_cast<uint32_t>(m->out_pool_.size());
    m->table_[i].out_len = static_cast<uint32_t>(spec.cells[i].out.size());
    m->out_pool_.insert(m->out_pool_.end(), spec.cells[i].out.begin(),
                        spec.cells[i].out.end());
  }
  return m;
}

bool DetTransducer::Transduce(std::span<const Symbol> input,
                              std::vector<Symbol>* out) const {
  out->clear();
  if (num_states_ == 0) return false;
  uint32_t state = initial_;
  const size_t width = alphabet_.size();
  for (Symbol s : input) {
    const uint32_t si = SymIndex(s);
    if (si == kStuck) return false;
    const Cell& cell = table_[state * width + si];
    if (cell.next == kStuck) return false;
    out->insert(out->end(), out_pool_.begin() + cell.out_begin,
                out_pool_.begin() + cell.out_begin + cell.out_len);
    state = cell.next;
  }
  return true;
}

Result<SeqId> DetTransducer::Apply(std::span<const SeqId> inputs,
                                   SequencePool* pool) const {
  if (inputs.size() != 1) {
    return Status::InvalidArgument(
        StrCat("machine '", name_, "' takes 1 input, got ", inputs.size()));
  }
  std::vector<Symbol> out;
  if (!Transduce(pool->View(inputs[0]), &out)) {
    return Status::FailedPrecondition(
        StrCat("machine '", name_, "' undefined on input"));
  }
  return pool->Intern(SeqView(out.data(), out.size()));
}

void DetTransducer::CollectStats(TransducerStats* out) const {
  out->machines_compiled += 1;
  out->states_in += source_states_;
  out->states_out += num_states_;
}

Result<std::shared_ptr<const DetTransducer>> CompileSingle(
    const Transducer& machine, std::span<const Symbol> alphabet,
    analysis::DiagnosticReport* report) {
  if (machine.NumInputs() != 1 || machine.Order() != 1) {
    return Refuse(kCodeUnsupportedShape, "machine", machine.name(),
                  StrCat("compilation needs a single-input order-1 "
                         "machine; this one has ",
                         machine.NumInputs(), " input(s), order ",
                         machine.Order()),
                  report);
  }
  SEQLOG_ASSIGN_OR_RETURN(GroundTable table, Ground(machine, alphabet));
  const size_t width = table.alphabet.size();
  return Lower("machine", machine.name(), table.alphabet,
               machine.num_states(), table.initial,
               [&](uint64_t state, size_t ai) -> std::optional<Move> {
                 const GroundTable::Cell& cell =
                     table.cells[state * width + ai];
                 if (cell.next == DetTransducer::kStuck) return std::nullopt;
                 return Move{cell.next, cell.has_out, cell.out};
               },
               report);
}

Result<std::shared_ptr<const DetTransducer>> FuseChain(
    const Transducer& first, const Transducer& second,
    std::span<const Symbol> alphabet, analysis::DiagnosticReport* report) {
  const std::string chain_name =
      StrCat("fuse(", first.name(), ",", second.name(), ")");
  if (first.NumInputs() != 1 || second.NumInputs() != 1) {
    return Refuse(kCodeFusionUnsupported, "chain", chain_name,
                  "only single-input machines fuse (a multi-input node "
                  "reads tapes the product cannot track)",
                  report);
  }
  if (first.Order() != 1 || second.Order() != 1) {
    return Refuse(kCodeFusionUnsupported, "chain", chain_name,
                  "only order-1 machines fuse (a subtransducer call "
                  "needs the unmaterialised intermediate tape)",
                  report);
  }

  SEQLOG_ASSIGN_OR_RETURN(GroundTable a, Ground(first, alphabet));
  // The intermediate alphabet is whatever `first` can emit; `second` is
  // grounded over exactly that, so chains crossing alphabets (DNA ->
  // RNA -> protein) fuse without the chain input alphabet ever naming
  // the intermediate symbols.
  std::vector<Symbol> mid_alphabet;
  for (const GroundTable::Cell& cell : a.cells) {
    if (cell.next != DetTransducer::kStuck && cell.has_out) {
      mid_alphabet.push_back(cell.out);
    }
  }
  SEQLOG_ASSIGN_OR_RETURN(GroundTable b, Ground(second, mid_alphabet));

  // A product configuration packs (A state, B state); one step consumes
  // one chain symbol in A and pushes A's emission through B.
  const size_t width = a.alphabet.size();
  auto pack = [](uint64_t sa, uint64_t sb) { return (sa << 32) | sb; };
  return Lower(
      "chain", chain_name, a.alphabet,
      first.num_states() + second.num_states(), pack(a.initial, b.initial),
      [&](uint64_t config, size_t ai) -> std::optional<Move> {
        const uint32_t sa = static_cast<uint32_t>(config >> 32);
        const uint32_t sb = static_cast<uint32_t>(config);
        const GroundTable::Cell& ca = a.cells[sa * width + ai];
        if (ca.next == DetTransducer::kStuck) return std::nullopt;
        if (!ca.has_out) return Move{pack(ca.next, sb)};
        const GroundTable::Cell* cb = b.Find(sb, ca.out);
        if (cb == nullptr) return std::nullopt;  // B stuck on the emission
        return Move{pack(ca.next, cb->next), cb->has_out, cb->out};
      },
      report);
}

}  // namespace transducer
}  // namespace seqlog
