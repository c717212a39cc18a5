#include "eval/clause_plan.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/string_util.h"

namespace seqlog {
namespace eval {

namespace {

/// Assigns dense ids to variable names in deterministic (alphabetical)
/// order.
struct VarTable {
  std::map<std::string, uint32_t> seq_ids;
  std::map<std::string, uint32_t> idx_ids;
  std::vector<std::string> seq_names;
  std::vector<std::string> idx_names;

  void Build(const ast::Clause& clause) {
    std::set<std::string> seq_vars;
    std::set<std::string> idx_vars;
    ast::CollectAtomVars(clause.head, &seq_vars, &idx_vars);
    for (const ast::Atom& a : clause.body) {
      ast::CollectAtomVars(a, &seq_vars, &idx_vars);
    }
    for (const std::string& v : seq_vars) {
      seq_ids.emplace(v, static_cast<uint32_t>(seq_names.size()));
      seq_names.push_back(v);
    }
    for (const std::string& v : idx_vars) {
      idx_ids.emplace(v, static_cast<uint32_t>(idx_names.size()));
      idx_names.push_back(v);
    }
  }
};

std::unique_ptr<CIndexTerm> CompileIndex(const ast::IndexTermPtr& term,
                                         const VarTable& vars) {
  auto out = std::make_unique<CIndexTerm>();
  switch (term->kind) {
    case ast::IndexTerm::Kind::kLiteral:
      out->kind = CIndexTerm::Kind::kLiteral;
      out->literal = term->literal;
      break;
    case ast::IndexTerm::Kind::kVariable:
      out->kind = CIndexTerm::Kind::kVariable;
      out->var = vars.idx_ids.at(term->var);
      break;
    case ast::IndexTerm::Kind::kEnd:
      out->kind = CIndexTerm::Kind::kEnd;
      break;
    case ast::IndexTerm::Kind::kAdd:
      out->kind = CIndexTerm::Kind::kAdd;
      out->lhs = CompileIndex(term->lhs, vars);
      out->rhs = CompileIndex(term->rhs, vars);
      break;
    case ast::IndexTerm::Kind::kSub:
      out->kind = CIndexTerm::Kind::kSub;
      out->lhs = CompileIndex(term->lhs, vars);
      out->rhs = CompileIndex(term->rhs, vars);
      break;
  }
  return out;
}

void CollectTermVars(const ast::SeqTermPtr& term, const VarTable& vars,
                     std::vector<VarRef>* out) {
  std::set<std::string> seq_vars;
  std::set<std::string> idx_vars;
  ast::CollectSeqVars(term, &seq_vars);
  ast::CollectIndexVars(term, &idx_vars);
  for (const std::string& v : seq_vars) {
    out->push_back(VarRef{false, vars.seq_ids.at(v)});
  }
  for (const std::string& v : idx_vars) {
    out->push_back(VarRef{true, vars.idx_ids.at(v)});
  }
}

Result<std::unique_ptr<CSeqTerm>> CompileSeq(
    const ast::SeqTermPtr& term, const VarTable& vars,
    const FunctionRegistry* registry) {
  auto out = std::make_unique<CSeqTerm>();
  switch (term->kind) {
    case ast::SeqTerm::Kind::kConstant:
      out->kind = CSeqTerm::Kind::kConstant;
      out->constant = term->constant;
      break;
    case ast::SeqTerm::Kind::kVariable:
      out->kind = CSeqTerm::Kind::kVariable;
      out->var = vars.seq_ids.at(term->var);
      break;
    case ast::SeqTerm::Kind::kIndexed: {
      out->kind = CSeqTerm::Kind::kIndexed;
      if (term->base->kind == ast::SeqTerm::Kind::kVariable) {
        out->base_is_var = true;
        out->var = vars.seq_ids.at(term->base->var);
      } else {
        out->base_is_var = false;
        out->constant = term->base->constant;
      }
      out->lo = CompileIndex(term->lo, vars);
      out->hi = CompileIndex(term->hi, vars);
      break;
    }
    case ast::SeqTerm::Kind::kConcat: {
      out->kind = CSeqTerm::Kind::kConcat;
      SEQLOG_ASSIGN_OR_RETURN(out->left,
                              CompileSeq(term->left, vars, registry));
      SEQLOG_ASSIGN_OR_RETURN(out->right,
                              CompileSeq(term->right, vars, registry));
      break;
    }
    case ast::SeqTerm::Kind::kTransducer: {
      out->kind = CSeqTerm::Kind::kFunction;
      if (registry == nullptr) {
        return Status::FailedPrecondition(
            StrCat("transducer term @", term->transducer,
                   " used but no function registry supplied"));
      }
      SEQLOG_ASSIGN_OR_RETURN(out->fn, registry->Find(term->transducer));
      if (out->fn->NumInputs() != term->args.size()) {
        return Status::InvalidArgument(
            StrCat("transducer '", term->transducer, "' takes ",
                   out->fn->NumInputs(), " inputs, got ",
                   term->args.size()));
      }
      for (const ast::SeqTermPtr& a : term->args) {
        SEQLOG_ASSIGN_OR_RETURN(std::unique_ptr<CSeqTerm> ca,
                                CompileSeq(a, vars, registry));
        out->args.push_back(std::move(ca));
      }
      break;
    }
  }
  CollectTermVars(term, vars, &out->vars);
  return out;
}

/// Cost weights: enumerating a sequence variable scans the whole domain;
/// an index variable scans [0, lmax+1]. Sequence enumeration dominates.
constexpr int kSeqEnumWeight = 10000;
constexpr int kIdxEnumWeight = 100;

struct StepPlan {
  std::vector<VarRef> enum_vars;
  std::vector<ArgMode> modes;
  int bind_side = -1;
  int score = 0;
};

/// True if `term` mentions the `end` keyword anywhere.
bool ContainsEnd(const CIndexTerm& term) {
  switch (term.kind) {
    case CIndexTerm::Kind::kEnd:
      return true;
    case CIndexTerm::Kind::kAdd:
    case CIndexTerm::Kind::kSub:
      return ContainsEnd(*term.lhs) || ContainsEnd(*term.rhs);
    default:
      return false;
  }
}

/// Plans one predicate literal given the bound set.
StepPlan PlanMatch(const LiteralStep& step, const std::set<VarRef>& bound) {
  StepPlan plan;
  // First pass: identify collector variables (plain unbound vars).
  std::set<VarRef> collectors;
  plan.modes.assign(step.args.size(), ArgMode::kKey);
  std::vector<char> is_collector(step.args.size(), 0);
  for (size_t i = 0; i < step.args.size(); ++i) {
    const CSeqTerm& arg = *step.args[i];
    if (arg.IsPlainVar() && bound.count(VarRef{false, arg.var}) == 0) {
      plan.modes[i] = ArgMode::kCollector;
      is_collector[i] = 1;
      collectors.insert(VarRef{false, arg.var});
    }
  }
  // Inverse-suffix pass: an argument B[lo:end] with unbound base B and
  // fully-bound, end-free lo can *solve* B from the matched value by a
  // length-bucket scan instead of enumerating the domain for B. Each
  // solvable argument must be B's first occurrence in the literal so the
  // executor binds before any other argument reads it.
  std::set<VarRef> solved;
  std::vector<char> is_inverse(step.args.size(), 0);
  for (size_t i = 0; i < step.args.size(); ++i) {
    if (is_collector[i]) continue;
    const CSeqTerm& arg = *step.args[i];
    if (arg.kind != CSeqTerm::Kind::kIndexed || !arg.base_is_var) continue;
    VarRef base{false, arg.var};
    if (bound.count(base) > 0 || collectors.count(base) > 0 ||
        solved.count(base) > 0) {
      continue;
    }
    if (arg.hi->kind != CIndexTerm::Kind::kEnd) continue;
    if (ContainsEnd(*arg.lo)) continue;
    bool lo_bound = true;
    for (VarRef v : arg.vars) {
      if (v == base) continue;
      if (bound.count(v) == 0) lo_bound = false;
    }
    if (!lo_bound) continue;
    bool first_occurrence = true;
    for (size_t j = 0; j < i; ++j) {
      for (VarRef v : step.args[j]->vars) {
        if (v == base) first_occurrence = false;
      }
    }
    if (!first_occurrence) continue;
    is_inverse[i] = 1;
    solved.insert(base);
  }
  // Final pass: keys vs post-checks, and enumeration vars.
  std::set<VarRef> enums;
  for (size_t i = 0; i < step.args.size(); ++i) {
    const CSeqTerm& arg = *step.args[i];
    if (is_collector[i]) continue;
    if (is_inverse[i]) {
      plan.modes[i] = ArgMode::kInverseSuffix;
      continue;
    }
    bool needs_late_vars = false;
    for (VarRef v : arg.vars) {
      if (collectors.count(v) > 0 || solved.count(v) > 0) {
        needs_late_vars = true;
      } else if (bound.count(v) == 0) {
        enums.insert(v);
      }
    }
    plan.modes[i] = needs_late_vars ? ArgMode::kPostCheck : ArgMode::kKey;
  }
  plan.enum_vars.assign(enums.begin(), enums.end());
  bool has_key = false;
  for (size_t i = 0; i < step.args.size(); ++i) {
    if (plan.modes[i] == ArgMode::kKey && !step.args[i]->vars.empty()) {
      has_key = true;  // an evaluable, non-constant key helps seeks
    }
  }
  for (VarRef v : plan.enum_vars) {
    plan.score += v.is_index ? kIdxEnumWeight : kSeqEnumWeight;
  }
  // A bucket scan is far cheaper than full-domain enumeration but not
  // free; weight it like an index-variable loop.
  plan.score +=
      static_cast<int>(solved.size()) * kIdxEnumWeight;
  if (has_key) plan.score -= 10;
  return plan;
}

/// Plans an equality / inequality literal given the bound set.
StepPlan PlanCompare(const LiteralStep& step,
                     const std::set<VarRef>& bound) {
  StepPlan plan;
  const CSeqTerm& lhs = *step.args[0];
  const CSeqTerm& rhs = *step.args[1];
  auto unbound_vars = [&](const CSeqTerm& t) {
    std::set<VarRef> out;
    for (VarRef v : t.vars) {
      if (bound.count(v) == 0) out.insert(v);
    }
    return out;
  };
  std::set<VarRef> ul = unbound_vars(lhs);
  std::set<VarRef> ur = unbound_vars(rhs);
  std::set<VarRef> enums;
  if (step.kind == LiteralStep::Kind::kEq && lhs.IsPlainVar() &&
      ul.size() == 1) {
    // lhs is a single unbound plain variable: bind it from rhs.
    plan.bind_side = 0;
    enums = ur;
  } else if (step.kind == LiteralStep::Kind::kEq && rhs.IsPlainVar() &&
             ur.size() == 1) {
    plan.bind_side = 1;
    enums = ul;
  } else {
    enums = ul;
    enums.insert(ur.begin(), ur.end());
  }
  plan.enum_vars.assign(enums.begin(), enums.end());
  for (VarRef v : plan.enum_vars) {
    plan.score += v.is_index ? kIdxEnumWeight : kSeqEnumWeight;
  }
  plan.score += 5;  // prefer predicate literals at equal enumeration cost
  return plan;
}

}  // namespace

Result<ClausePlan> CompileClause(const ast::Clause& clause,
                                 Catalog* catalog,
                                 const FunctionRegistry* registry) {
  ClausePlan plan;
  plan.source = clause;
  plan.constructive = clause.IsConstructiveClause();

  VarTable vars;
  vars.Build(clause);
  plan.num_seq_vars = vars.seq_names.size();
  plan.num_idx_vars = vars.idx_names.size();
  plan.seq_var_names = vars.seq_names;
  plan.idx_var_names = vars.idx_names;

  // Head.
  SEQLOG_ASSIGN_OR_RETURN(
      PredId head_pred,
      catalog->GetOrCreate(clause.head.predicate, clause.head.args.size()));
  plan.head_pred = head_pred;
  for (const ast::SeqTermPtr& t : clause.head.args) {
    SEQLOG_ASSIGN_OR_RETURN(std::unique_ptr<CSeqTerm> ct,
                            CompileSeq(t, vars, registry));
    plan.head_args.push_back(std::move(ct));
  }

  // Compile body literals (original order, before scheduling).
  std::vector<LiteralStep> literals;
  for (size_t bi = 0; bi < clause.body.size(); ++bi) {
    const ast::Atom& atom = clause.body[bi];
    LiteralStep step;
    step.source_index = bi;
    if (atom.kind == ast::Atom::Kind::kPredicate) {
      step.kind = LiteralStep::Kind::kMatch;
      SEQLOG_ASSIGN_OR_RETURN(
          step.pred, catalog->GetOrCreate(atom.predicate, atom.args.size()));
    } else {
      step.kind = atom.kind == ast::Atom::Kind::kEq
                      ? LiteralStep::Kind::kEq
                      : LiteralStep::Kind::kNeq;
    }
    for (const ast::SeqTermPtr& t : atom.args) {
      SEQLOG_ASSIGN_OR_RETURN(std::unique_ptr<CSeqTerm> ct,
                              CompileSeq(t, vars, registry));
      step.args.push_back(std::move(ct));
    }
    literals.push_back(std::move(step));
  }

  auto note_read = [&plan](DomainRead read) {
    plan.domain_read = std::max(plan.domain_read, read);
  };
  auto note_enumerated = [&](VarRef v) {
    note_read(v.is_index ? DomainRead::kRange : DomainRead::kEnumeration);
  };

  // Greedy bound-first scheduling.
  std::set<VarRef> bound;
  std::vector<bool> taken(literals.size(), false);
  for (size_t round = 0; round < literals.size(); ++round) {
    int best_score = 0;
    size_t best = literals.size();
    StepPlan best_plan;
    for (size_t i = 0; i < literals.size(); ++i) {
      if (taken[i]) continue;
      StepPlan sp = literals[i].kind == LiteralStep::Kind::kMatch
                        ? PlanMatch(literals[i], bound)
                        : PlanCompare(literals[i], bound);
      if (best == literals.size() || sp.score < best_score) {
        best = i;
        best_score = sp.score;
        best_plan = std::move(sp);
      }
    }
    SEQLOG_CHECK(best < literals.size());
    taken[best] = true;
    LiteralStep& chosen = literals[best];
    chosen.enum_vars = std::move(best_plan.enum_vars);
    chosen.modes = std::move(best_plan.modes);
    chosen.bind_side = best_plan.bind_side;
    for (VarRef v : chosen.enum_vars) note_enumerated(v);
    if (chosen.kind == LiteralStep::Kind::kEq && chosen.bind_side >= 0) {
      note_read(DomainRead::kMembership);
    }
    // Inverse-suffix args draw candidates from the domain's length
    // buckets, so domain growth alone can create new matches here too.
    for (ArgMode mode : chosen.modes) {
      if (mode == ArgMode::kInverseSuffix) {
        note_read(DomainRead::kEnumeration);
      }
    }
    for (const auto& arg : chosen.args) {
      for (VarRef v : arg->vars) bound.insert(v);
    }
    plan.steps.push_back(std::move(chosen));
  }
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    if (plan.steps[i].kind == LiteralStep::Kind::kMatch) {
      plan.match_steps.push_back(i);
    }
  }

  // Head variables not bound by the body are enumerated over the domain.
  std::set<VarRef> head_unbound;
  for (const auto& arg : plan.head_args) {
    for (VarRef v : arg->vars) {
      if (bound.count(v) == 0) head_unbound.insert(v);
    }
  }
  plan.head_enum_vars.assign(head_unbound.begin(), head_unbound.end());
  for (VarRef v : plan.head_enum_vars) note_enumerated(v);

  return plan;
}

namespace {
const char* DomainReadName(DomainRead read) {
  switch (read) {
    case DomainRead::kNone:
      return "none";
    case DomainRead::kRange:
      return "range";
    case DomainRead::kMembership:
      return "membership";
    case DomainRead::kEnumeration:
      return "enumeration";
  }
  return "?";
}
}  // namespace

std::string DebugString(const ClausePlan& plan, const Catalog& catalog) {
  std::string out =
      StrCat("plan head=", catalog.Name(plan.head_pred),
             plan.constructive ? " [constructive]" : "",
             plan.domain_read != DomainRead::kNone ? " [domain-sensitive]"
                                                   : "",
             " domain: ", DomainReadName(plan.domain_read), "\n");
  auto var_name = [&](VarRef v) {
    return v.is_index ? plan.idx_var_names[v.id] : plan.seq_var_names[v.id];
  };
  for (const LiteralStep& step : plan.steps) {
    out += "  ";
    switch (step.kind) {
      case LiteralStep::Kind::kMatch:
        out += StrCat("match ", catalog.Name(step.pred), "/",
                      step.args.size());
        for (size_t i = 0; i < step.args.size(); ++i) {
          switch (step.modes[i]) {
            case ArgMode::kCollector:
              out += " collect";
              break;
            case ArgMode::kKey:
              out += " key";
              break;
            case ArgMode::kPostCheck:
              out += " check";
              break;
            case ArgMode::kInverseSuffix:
              out += " inv";
              break;
          }
        }
        break;
      case LiteralStep::Kind::kEq:
        out += StrCat("eq bind_side=", step.bind_side);
        break;
      case LiteralStep::Kind::kNeq:
        out += "neq";
        break;
    }
    if (!step.enum_vars.empty()) {
      out += " enum{";
      for (VarRef v : step.enum_vars) out += StrCat(var_name(v), " ");
      out += "}";
    }
    out += "\n";
  }
  if (!plan.head_enum_vars.empty()) {
    out += "  head enum{";
    for (VarRef v : plan.head_enum_vars) out += StrCat(var_name(v), " ");
    out += "}\n";
  }
  return out;
}

}  // namespace eval
}  // namespace seqlog
