// Randomized differential testing of the evaluator: a seed-reproducible
// generator emits bounded strongly-safe programs over a small EDB
// alphabet, an independent reference evaluator (naive fixpoint over
// plain string sets and a literal extended active domain, no sharing
// with src/) computes the expected model, and every generated program is
// checked bit-identical against it, plus the naive and stratified
// strategy oracles. Every unary derived predicate is also queried
// through prepared goals on a published snapshot, whose runs layer
// their domain on the snapshot's: all free, and bound to each of its
// answers and to random sequences mostly outside the domain, one
// binding at a time and all bindings as one batch.
//
// Flags (also usable for CI soak runs, .github/workflows/soak.yml):
//   --seed=N    base seed of the corpus (default: fixed corpus)
//   --iters=N   number of generated programs (default 200)
// Environment:
//   SEQLOG_DIFF_SEED / SEQLOG_DIFF_ITERS  same as the flags
//   SEQLOG_DIFF_SEED_LOG  file to append failing seeds to (CI uploads
//                         it as an artifact)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"

namespace seqlog {
namespace {

uint64_t g_base_seed = 20250807;
size_t g_iters = 200;

// ---------------------------------------------------------------------
// Program IR. Constructive heads only ever sit on EDB-only bodies with
// the head predicate used nowhere else, and no rule derives a sequence
// outside the domain it reads, so every program is strongly safe and its
// model finite.
// ---------------------------------------------------------------------

struct Pred {
  std::string name;
  int arity;
};

struct Lit {
  int pred;
  std::vector<int> vars;  // indices into kVarNames
};

/// How a rule is written. kPlain and kConcat rules are range-restricted
/// (every head variable occurs in a body literal). The other shapes
/// read the extended active domain, one access path each, and are
/// written out whole by RenderProgram:
///   kSuffixes    p(X[N:end]) :- e1(X).         the integer range
///   kWindows     p(W) :- e1(X), W = X[I:J].    membership
///   kExtensions  p(X) :- e1(X[2:end]).         a length bucket
///   kDomain      p(X) :- true.                 full enumeration
///   kMember      p(X) :- X = c.                membership of a constant
enum class Shape {
  kPlain, kConcat, kSuffixes, kWindows, kExtensions, kDomain, kMember
};

struct Rule {
  int head_pred;
  std::vector<int> head_vars;
  Shape shape = Shape::kPlain;  // kConcat: head is name(v0 ++ v1)
  std::vector<Lit> body;        // the predicates the rule reads
  std::string constant = "";    // kMember: the sequence c
};

struct GenProgram {
  std::vector<Pred> preds;  // [0] = e1/1, [1] = e2/2, rest IDB
  std::vector<Rule> rules;
  std::vector<std::string> e1_facts;
  std::vector<std::pair<std::string, std::string>> e2_facts;
};

constexpr const char* kVarNames[] = {"X", "Y", "Z", "W"};

std::string RandomSeq(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> len_dist(1, 4);
  std::uniform_int_distribution<int> sym_dist(0, 1);
  int len = len_dist(*rng);
  std::string s;
  for (int i = 0; i < len; ++i) s.push_back(sym_dist(*rng) ? 'b' : 'a');
  return s;
}

GenProgram Generate(uint64_t seed) {
  std::mt19937_64 rng(seed);
  GenProgram prog;
  prog.preds.push_back({"e1", 1});
  prog.preds.push_back({"e2", 2});
  std::uniform_int_distribution<int> e1_count(3, 8);
  std::uniform_int_distribution<int> e2_count(4, 12);
  int n1 = e1_count(rng);
  for (int i = 0; i < n1; ++i) prog.e1_facts.push_back(RandomSeq(&rng));
  int n2 = e2_count(rng);
  for (int i = 0; i < n2; ++i) {
    prog.e2_facts.emplace_back(RandomSeq(&rng), RandomSeq(&rng));
  }

  auto new_pred = [&prog](int arity) {
    std::string name = "p";
    name += std::to_string(prog.preds.size() - 2);
    prog.preds.push_back({std::move(name), arity});
    return static_cast<int>(prog.preds.size()) - 1;
  };
  std::vector<int> binary_idb;  // non-sink binary IDB preds, for reuse

  std::uniform_int_distribution<int> rule_count(2, 6);
  std::uniform_int_distribution<int> template_dist(0, 7);
  int n_rules = rule_count(rng);
  for (int r = 0; r < n_rules; ++r) {
    switch (template_dist(rng)) {
      case 0: {  // projection: p(X) :- e2(X, Y).  (either column)
        int p = new_pred(1);
        bool first = rng() & 1;
        prog.rules.push_back(
            Rule{p, {first ? 0 : 1}, Shape::kPlain, {Lit{1, {0, 1}}}});
        break;
      }
      case 1: {  // join: p(X, Z) :- e2(X, Y), e2(Y, Z).
        int p = new_pred(2);
        prog.rules.push_back(
            Rule{p, {0, 2}, Shape::kPlain, {Lit{1, {0, 1}}, Lit{1, {1, 2}}}});
        binary_idb.push_back(p);
        break;
      }
      case 2: {  // transitive closure of e2
        int p = new_pred(2);
        prog.rules.push_back(Rule{p, {0, 1}, Shape::kPlain, {Lit{1, {0, 1}}}});
        prog.rules.push_back(
            Rule{p, {0, 2}, Shape::kPlain, {Lit{p, {0, 1}}, Lit{1, {1, 2}}}});
        binary_idb.push_back(p);
        break;
      }
      case 3: {  // filter: p(X) :- e1(X), e2(X, Y).
        int p = new_pred(1);
        prog.rules.push_back(
            Rule{p, {0}, Shape::kPlain, {Lit{0, {0}}, Lit{1, {0, 1}}}});
        break;
      }
      case 4: {  // constructive sink: c(X ++ Y) :- e1(X), e1(Y).
        int p = new_pred(1);
        prog.rules.push_back(
            Rule{p, {0, 1}, Shape::kConcat, {Lit{0, {0}}, Lit{0, {1}}}});
        break;
      }
      case 5: {  // constructive sink from pairs: c(X ++ Y) :- e2(X, Y).
        int p = new_pred(1);
        prog.rules.push_back(Rule{p, {0, 1}, Shape::kConcat, {Lit{1, {0, 1}}}});
        break;
      }
      case 6: {  // self-join column equality: p(X) :- e2(X, X).
        int p = new_pred(1);
        prog.rules.push_back(Rule{p, {0}, Shape::kPlain, {Lit{1, {0, 0}}}});
        break;
      }
      default: {  // IDB chaining: p(Y) :- q(X, Y). over a prior binary
        if (binary_idb.empty()) {
          int p = new_pred(1);
          prog.rules.push_back(Rule{p, {0}, Shape::kPlain, {Lit{0, {0}}}});
          break;
        }
        int q = binary_idb[rng() % binary_idb.size()];
        int p = new_pred(1);
        prog.rules.push_back(Rule{p, {1}, Shape::kPlain, {Lit{q, {0, 1}}}});
        break;
      }
    }
  }
  // Domain-reading rules draw from a stream of their own, so each seed
  // keeps the range-restricted rules it has always generated.
  std::mt19937_64 domain_rng(seed ^ 0xd0d0d0d0d0d0d0d0u);
  std::uniform_int_distribution<int> domain_rules(0, 2);
  std::uniform_int_distribution<int> domain_shape(
      static_cast<int>(Shape::kSuffixes), static_cast<int>(Shape::kDomain));
  for (int r = domain_rules(domain_rng); r > 0; --r) {
    const auto shape = static_cast<Shape>(domain_shape(domain_rng));
    const int p = new_pred(1);
    prog.rules.push_back(Rule{
        p, {0}, shape,
        shape == Shape::kDomain ? std::vector<Lit>{}
                                : std::vector<Lit>{Lit{0, {0}}}});
  }
  // Rules that read a domain-reading predicate d through a body literal,
  // q(X) :- d(X), draw from a third stream. A bound goal on q keeps its
  // binding while d is demoted to free, so the demand run enumerates its
  // domain with the goal's value in hand.
  std::mt19937_64 reader_rng(seed ^ 0xc1c1c1c1c1c1c1c1u);
  const int n_preds = static_cast<int>(prog.preds.size());
  for (int d = 0; d < n_preds; ++d) {
    const bool reads_domain = std::any_of(
        prog.rules.begin(), prog.rules.end(), [d](const Rule& rule) {
          return rule.head_pred == d && rule.shape != Shape::kPlain &&
                 rule.shape != Shape::kConcat;
        });
    if (!reads_domain || (reader_rng() & 1) == 0) continue;
    const int q = new_pred(1);
    prog.rules.push_back(Rule{q, {0}, Shape::kPlain, {Lit{d, {0}}}});
  }
  // A constant-membership rule, last and from a fourth stream. Its
  // constant is mostly longer than any fact, so it is a member only when
  // a constructive rule builds a sequence that contains it.
  std::mt19937_64 member_rng(seed ^ 0xe5e5e5e5e5e5e5e5u);
  if ((member_rng() & 1) != 0) {
    std::uniform_int_distribution<int> len_dist(2, 6);
    std::string constant(len_dist(member_rng), 'a');
    for (char& c : constant) c = (member_rng() & 1) ? 'b' : 'a';
    prog.rules.push_back(
        Rule{new_pred(1), {0}, Shape::kMember, {}, std::move(constant)});
  }
  return prog;
}

std::string RenderProgram(const GenProgram& prog) {
  std::string out;
  for (const Rule& rule : prog.rules) {
    out += prog.preds[rule.head_pred].name;
    switch (rule.shape) {
      case Shape::kPlain:
      case Shape::kConcat:
        break;
      case Shape::kSuffixes:
        out += "(X[N:end]) :- e1(X).\n";
        continue;
      case Shape::kWindows:
        out += "(W) :- e1(X), W = X[I:J].\n";
        continue;
      case Shape::kExtensions:
        out += "(X) :- e1(X[2:end]).\n";
        continue;
      case Shape::kDomain:
        out += "(X) :- true.\n";
        continue;
      case Shape::kMember:
        out += "(X) :- X = ";
        out += rule.constant;
        out += ".\n";
        continue;
    }
    out += '(';
    if (rule.shape == Shape::kConcat) {
      out += kVarNames[rule.head_vars[0]];
      out += " ++ ";
      out += kVarNames[rule.head_vars[1]];
    } else {
      for (size_t i = 0; i < rule.head_vars.size(); ++i) {
        if (i) out += ", ";
        out += kVarNames[rule.head_vars[i]];
      }
    }
    out += ") :- ";
    for (size_t li = 0; li < rule.body.size(); ++li) {
      if (li) out += ", ";
      out += prog.preds[rule.body[li].pred].name;
      out += '(';
      for (size_t i = 0; i < rule.body[li].vars.size(); ++i) {
        if (i) out += ", ";
        out += kVarNames[rule.body[li].vars[i]];
      }
      out += ')';
    }
    out += ".\n";
  }
  return out;
}

// ---------------------------------------------------------------------
// Reference evaluator: naive fixpoint over sets of string tuples. No
// SeqIds, no relations, no sharing with src/ — the model the engine
// must reproduce.
// ---------------------------------------------------------------------

using RefModel = std::map<int, std::set<std::vector<std::string>>>;

/// The extended active domain of `model`, written out literally
/// (Definitions 2-3): every contiguous subsequence of every sequence in
/// it, epsilon included, and lmax for the integer range [0, lmax + 1].
struct RefDomain {
  explicit RefDomain(const RefModel& model) {
    for (const auto& [pred, rows] : model) {
      for (const std::vector<std::string>& row : rows) {
        for (const std::string& s : row) {
          lmax = std::max(lmax, s.size());
          for (size_t from = 0; from <= s.size(); ++from) {
            for (size_t len = 0; from + len <= s.size(); ++len) {
              seqs.insert(s.substr(from, len));
            }
          }
        }
      }
    }
    seqs.insert("");
  }
  std::set<std::string> seqs;
  size_t lmax = 0;
};

/// s[from:to] (1-based, inclusive) when defined (Section 3.2:
/// 1 <= from <= to + 1 <= len(s) + 1), else nullopt.
std::optional<std::string> RefSlice(const std::string& s, size_t from,
                                    size_t to) {
  if (from < 1 || from > to + 1 || to > s.size()) return std::nullopt;
  return s.substr(from - 1, to + 1 - from);
}

/// One application of a domain-reading rule: every substitution over the
/// literal domain of `model`.
void RefDomainRule(const Rule& rule, const RefModel& model,
                   std::set<std::vector<std::string>>* out) {
  const RefDomain domain(model);
  std::set<std::string> e1;
  if (auto it = model.find(0); it != model.end()) {
    for (const std::vector<std::string>& row : it->second) e1.insert(row[0]);
  }
  const size_t max_int = domain.lmax + 1;
  switch (rule.shape) {
    case Shape::kSuffixes:
      for (const std::string& x : e1) {
        for (size_t n = 0; n <= max_int; ++n) {
          if (auto v = RefSlice(x, n, x.size())) out->insert({*v});
        }
      }
      break;
    case Shape::kWindows:
      for (const std::string& x : e1) {
        for (size_t i = 0; i <= max_int; ++i) {
          for (size_t j = 0; j <= max_int; ++j) {
            auto w = RefSlice(x, i, j);
            if (w && domain.seqs.count(*w) > 0) out->insert({*w});
          }
        }
      }
      break;
    case Shape::kExtensions:
      for (const std::string& x : domain.seqs) {
        auto tail = RefSlice(x, 2, x.size());
        if (tail && e1.count(*tail) > 0) out->insert({x});
      }
      break;
    case Shape::kDomain:
      for (const std::string& x : domain.seqs) out->insert({x});
      break;
    case Shape::kMember:
      if (domain.seqs.count(rule.constant) > 0) out->insert({rule.constant});
      break;
    case Shape::kPlain:
    case Shape::kConcat:
      break;
  }
}

void RefMatch(const Rule& rule, size_t li, const RefModel& model,
              std::vector<std::optional<std::string>>* env,
              std::set<std::vector<std::string>>* out) {
  if (li == rule.body.size()) {
    std::vector<std::string> head;
    if (rule.shape == Shape::kConcat) {
      head.push_back(*(*env)[rule.head_vars[0]] +
                     *(*env)[rule.head_vars[1]]);
    } else {
      for (int v : rule.head_vars) head.push_back(*(*env)[v]);
    }
    out->insert(std::move(head));
    return;
  }
  const Lit& lit = rule.body[li];
  auto it = model.find(lit.pred);
  if (it == model.end()) return;
  for (const std::vector<std::string>& row : it->second) {
    std::vector<int> bound_here;
    bool ok = true;
    for (size_t i = 0; i < lit.vars.size() && ok; ++i) {
      int v = lit.vars[i];
      if ((*env)[v].has_value()) {
        ok = *(*env)[v] == row[i];
      } else {
        (*env)[v] = row[i];
        bound_here.push_back(v);
      }
    }
    if (ok) RefMatch(rule, li + 1, model, env, out);
    for (int v : bound_here) (*env)[v].reset();
  }
}

RefModel RefEvaluate(const GenProgram& prog) {
  RefModel model;
  for (const std::string& s : prog.e1_facts) model[0].insert({s});
  for (const auto& [a, b] : prog.e2_facts) model[1].insert({a, b});
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : prog.rules) {
      std::set<std::vector<std::string>> derived;
      if (rule.shape == Shape::kPlain || rule.shape == Shape::kConcat) {
        std::vector<std::optional<std::string>> env(4);
        RefMatch(rule, 0, model, &env, &derived);
      } else {
        RefDomainRule(rule, model, &derived);
      }
      for (const std::vector<std::string>& row : derived) {
        if (model[rule.head_pred].insert(row).second) changed = true;
      }
    }
  }
  return model;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

void LogFailingSeed(uint64_t seed) {
  const char* path = std::getenv("SEQLOG_DIFF_SEED_LOG");
  if (path == nullptr || *path == '\0') return;
  if (FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(seed));
    std::fclose(f);
  }
}

/// Evaluates `prog` in a fresh Engine and returns the sorted rendered
/// rows per predicate index, or nullopt (with a test failure) on error.
std::optional<std::vector<std::vector<RenderedRow>>> RunEngine(
    const GenProgram& prog, const eval::EvalOptions& options) {
  Engine engine;
  Status s = engine.LoadProgram(RenderProgram(prog));
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << RenderProgram(prog);
  if (!s.ok()) return std::nullopt;
  for (const std::string& f : prog.e1_facts) {
    EXPECT_TRUE(engine.AddFact("e1", {f}).ok());
  }
  for (const auto& [a, b] : prog.e2_facts) {
    EXPECT_TRUE(engine.AddFact("e2", {a, b}).ok());
  }
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  if (!outcome.status.ok()) return std::nullopt;
  std::vector<std::vector<RenderedRow>> per_pred;
  for (const Pred& pred : prog.preds) {
    Result<std::vector<RenderedRow>> rows = engine.Query(pred.name);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) return std::nullopt;
    per_pred.push_back(std::move(rows).value());
  }
  return per_pred;
}

std::vector<std::vector<RenderedRow>> RefRows(const GenProgram& prog,
                                              const RefModel& model) {
  std::vector<std::vector<RenderedRow>> per_pred;
  for (size_t p = 0; p < prog.preds.size(); ++p) {
    std::vector<RenderedRow> rows;
    auto it = model.find(static_cast<int>(p));
    if (it != model.end()) {
      rows.assign(it->second.begin(), it->second.end());
    }
    // std::set<vector<string>> iterates in the same lexicographic order
    // Engine::Query sorts into.
    per_pred.push_back(std::move(rows));
  }
  return per_pred;
}

/// The part of `prog` a goal on predicate `goal` reaches: the rules that
/// define it and, transitively, the derived predicates their bodies read.
GenProgram GoalSlice(const GenProgram& prog, int goal) {
  std::set<int> reached = {goal};
  for (bool grew = true; grew;) {
    grew = false;
    for (const Rule& rule : prog.rules) {
      if (reached.count(rule.head_pred) == 0) continue;
      for (const Lit& lit : rule.body) {
        grew = reached.insert(lit.pred).second || grew;
      }
    }
  }
  GenProgram slice = prog;
  slice.rules.clear();
  for (const Rule& rule : prog.rules) {
    if (reached.count(rule.head_pred) > 0) slice.rules.push_back(rule);
  }
  return slice;
}

/// A random {a,b} sequence of length 1-6; the generated facts have
/// length at most 4, so most of these lie outside the domain.
std::string RandomBinding(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> len_dist(1, 6);
  std::string s(len_dist(*rng), 'a');
  for (char& c : s) c = ((*rng)() & 1) ? 'b' : 'a';
  return s;
}

/// `?- p($1).` bound to each answer of `reference` (p's rows in the
/// slice model) and to 4 random sequences: every solo ExecuteWith must
/// answer the reference filtered to its value, and the same bindings as
/// one ExecuteBatch must answer the same item by item.
bool CheckBoundGoal(Engine* engine, const Snapshot& snapshot,
                    const std::string& name,
                    const std::vector<RenderedRow>& reference,
                    std::mt19937_64* rng, const GenProgram& prog,
                    uint64_t seed) {
  const std::string goal = "?- " + name + "($1).";
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  EXPECT_TRUE(prepared.ok()) << goal << " " << prepared.status().ToString();
  if (!prepared.ok()) return false;
  std::vector<std::string> values;
  for (const RenderedRow& row : reference) values.push_back(row[0]);
  for (int i = 0; i < 4; ++i) values.push_back(RandomBinding(rng));
  std::vector<query::Binding> bindings;
  for (const std::string& value : values) {
    bindings.push_back({engine->pool()->FromChars(value, engine->symbols())});
  }
  const BatchResultSet batch = prepared->ExecuteBatch(snapshot, bindings);
  EXPECT_TRUE(batch.status.ok()) << goal << " " << batch.status.ToString();
  if (!batch.status.ok()) return false;
  for (size_t i = 0; i < values.size(); ++i) {
    std::vector<RenderedRow> expected;
    if (std::binary_search(reference.begin(), reference.end(),
                           RenderedRow{values[i]})) {
      expected.push_back({values[i]});
    }
    const ResultSet solo = prepared->ExecuteWith(snapshot, bindings[i]);
    const char* path = nullptr;
    if (!solo.ok() || solo.Materialize() != expected) {
      path = "solo";
    } else if (!batch.results[i].ok() ||
               batch.results[i].Materialize() != expected) {
      path = "batched";
    }
    if (path != nullptr) {
      ADD_FAILURE() << path << " " << goal << " bound to '" << values[i]
                    << "' differs from the reference seed=" << seed
                    << "\n" << RenderProgram(prog);
      return false;
    }
  }
  return true;
}

/// Answers `?- p(X).` and the bound `?- p($1).` (CheckBoundGoal) for
/// every unary derived predicate through prepared goals on a published
/// snapshot — runs layered on the snapshot's domain — and checks them
/// against the reference. Demand evaluation runs only the rules the goal
/// reaches, so sequences that an unrelated constructive rule adds to the
/// whole program's domain are not in the goal's: the reference is the
/// model of the goal's slice.
bool CheckPreparedGoals(const GenProgram& prog, uint64_t seed) {
  Engine engine;
  Status s = engine.LoadProgram(RenderProgram(prog));
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << RenderProgram(prog);
  if (!s.ok()) return false;
  for (const std::string& f : prog.e1_facts) {
    EXPECT_TRUE(engine.AddFact("e1", {f}).ok());
  }
  for (const auto& [a, b] : prog.e2_facts) {
    EXPECT_TRUE(engine.AddFact("e2", {a, b}).ok());
  }
  const Snapshot snapshot = engine.PublishSnapshot();
  std::mt19937_64 binding_rng(seed ^ 0xb1b1b1b1b1b1b1b1u);
  bool ok = true;
  for (size_t p = 2; p < prog.preds.size(); ++p) {
    if (prog.preds[p].arity != 1) continue;
    const std::string goal = "?- " + prog.preds[p].name + "(X).";
    Result<PreparedQuery> prepared = engine.Prepare(goal);
    EXPECT_TRUE(prepared.ok()) << goal << " " << prepared.status().ToString();
    if (!prepared.ok()) return false;
    ResultSet answers = prepared->ExecuteWith(snapshot, {});
    EXPECT_TRUE(answers.ok()) << goal << " " << answers.status().ToString();
    if (!answers.ok()) return false;
    const GenProgram slice = GoalSlice(prog, static_cast<int>(p));
    const std::vector<RenderedRow> reference =
        RefRows(slice, RefEvaluate(slice))[p];
    if (answers.Materialize() != reference) {
      ADD_FAILURE() << "prepared " << goal << " on a snapshot differs from "
                    << "the reference seed=" << seed << "\n"
                    << RenderProgram(prog);
      ok = false;
    }
    if (!CheckBoundGoal(&engine, snapshot, prog.preds[p].name, reference,
                        &binding_rng, prog, seed)) {
      ok = false;
    }
  }
  return ok;
}

/// One generated program checked against the reference, and with
/// `strategy_oracles` also under the naive and stratified strategies;
/// returns false (after logging the seed) on any mismatch.
bool CheckSeed(uint64_t seed, bool strategy_oracles) {
  const GenProgram prog = Generate(seed);
  const RefModel ref_model = RefEvaluate(prog);
  const std::vector<std::vector<RenderedRow>> expected =
      RefRows(prog, ref_model);

  bool ok = true;
  auto got = RunEngine(prog, eval::EvalOptions{});
  if (!got.has_value()) return false;
  if (*got != expected) {
    ADD_FAILURE() << "model mismatch vs reference seed=" << seed << "\n"
                  << RenderProgram(prog);
    ok = false;
  }
  if (!CheckPreparedGoals(prog, seed)) ok = false;
  if (strategy_oracles) {
    for (auto strategy :
         {eval::Strategy::kNaive, eval::Strategy::kStratified}) {
      eval::EvalOptions options;
      options.strategy = strategy;
      auto oracle = RunEngine(prog, options);
      if (!oracle.has_value()) return false;
      if (*oracle != expected) {
        ADD_FAILURE() << "model mismatch vs reference for strategy "
                      << (strategy == eval::Strategy::kNaive
                              ? "naive"
                              : "stratified")
                      << " seed=" << seed << "\n" << RenderProgram(prog);
        ok = false;
      }
    }
  }
  if (!ok) LogFailingSeed(seed);
  return ok;
}

TEST(DifferentialTest, GeneratedProgramsMatchReferenceAtAllWidths) {
  size_t failures = 0;
  for (size_t i = 0; i < g_iters; ++i) {
    if (!CheckSeed(g_base_seed + i, /*strategy_oracles=*/false)) {
      ++failures;
      if (failures >= 5) {
        GTEST_FAIL() << "stopping after 5 failing seeds";
        return;
      }
    }
  }
}

TEST(DifferentialTest, StrategyOraclesAgreeOnCorpusPrefix) {
  // Naive and stratified re-evaluate everything each round — cap the
  // corpus prefix so this stays cheap; the test above covers the full
  // corpus.
  const size_t n = std::min<size_t>(g_iters, 50);
  for (size_t i = 0; i < n; ++i) {
    if (!CheckSeed(g_base_seed + i, /*strategy_oracles=*/true)) {
      GTEST_FAIL() << "stopping at first failing oracle seed";
      return;
    }
  }
}

}  // namespace
}  // namespace seqlog

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* env = std::getenv("SEQLOG_DIFF_SEED")) {
    seqlog::g_base_seed = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("SEQLOG_DIFF_ITERS")) {
    seqlog::g_iters = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seqlog::g_base_seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (arg.rfind("--iters=", 0) == 0) {
      seqlog::g_iters = std::strtoull(argv[i] + 8, nullptr, 10);
    }
  }
  return RUN_ALL_TESTS();
}
