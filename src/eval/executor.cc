#include "eval/executor.h"

#include <algorithm>

#include "base/string_util.h"

namespace seqlog {
namespace eval {

namespace {

/// Recursive backtracking evaluator for one firing of one clause.
class Firer {
 public:
  Firer(const ClausePlan& plan, size_t delta_step, FireContext* ctx)
      : plan_(plan), delta_step_(delta_step), ctx_(ctx) {
    env_.Resize(plan.num_seq_vars, plan.num_idx_vars);
  }

  Status Run() { return Step(0); }

 private:
  Status CheckDeadline() {
    if ((++ctx_->tick & 0x1FFF) == 0 && ctx_->has_deadline &&
        std::chrono::steady_clock::now() > ctx_->deadline) {
      return Status::ResourceExhausted("evaluation exceeded time budget");
    }
    return Status::Ok();
  }

  Status Step(size_t si) {
    if (si == plan_.steps.size()) {
      return EnumerateHead(0);
    }
    const LiteralStep& step = plan_.steps[si];
    return EnumerateStep(step, si, 0);
  }

  /// Enumerates step.enum_vars[vi..] over the domain, then dispatches.
  Status EnumerateStep(const LiteralStep& step, size_t si, size_t vi) {
    if (vi == step.enum_vars.size()) {
      switch (step.kind) {
        case LiteralStep::Kind::kMatch:
          return MatchRows(step, si);
        case LiteralStep::Kind::kEq:
        case LiteralStep::Kind::kNeq:
          return Compare(step, si);
      }
      return Status::Internal("unknown literal kind");
    }
    VarRef v = step.enum_vars[vi];
    if (v.is_index) {
      int64_t max_int = ctx_->domain->MaxInt();
      for (int64_t value = 0; value <= max_int; ++value) {
        SEQLOG_RETURN_IF_ERROR(CheckDeadline());
        env_.BindIdx(v.id, value);
        SEQLOG_RETURN_IF_ERROR(EnumerateStep(step, si, vi + 1));
      }
      env_.idx_bound[v.id] = 0;
    } else {
      for (SeqId value : ctx_->domain->sequences()) {
        SEQLOG_RETURN_IF_ERROR(CheckDeadline());
        env_.BindSeq(v.id, value);
        SEQLOG_RETURN_IF_ERROR(EnumerateStep(step, si, vi + 1));
      }
      env_.seq_bound[v.id] = 0;
    }
    return Status::Ok();
  }

  Status MatchRows(const LiteralStep& step, size_t si) {
    const Database* source =
        (si == delta_step_) ? ctx_->delta : ctx_->full;
    if (source == nullptr) return Status::Ok();
    const Relation* rel = source->Get(step.pred);
    if (rel == nullptr || rel->empty()) return Status::Ok();

    // Evaluate key arguments; pick the most selective index. Keys live
    // in a local vector: recursion into deeper steps re-enters MatchRows
    // and must not clobber this literal's keys.
    size_t n_args = step.args.size();
    std::vector<SeqId> key_vals(n_args, kEmptySeq);
    std::span<const RowId> candidates;
    bool have_key = false;
    for (size_t i = 0; i < n_args; ++i) {
      if (step.modes[i] != ArgMode::kKey) continue;
      SEQLOG_ASSIGN_OR_RETURN(std::optional<SeqId> v,
                              EvalSeqTerm(*step.args[i], env_, ctx_->pool));
      if (!v.has_value()) return Status::Ok();  // theta undefined here
      key_vals[i] = *v;
      std::span<const RowId> rows = rel->RowsWithValue(i, *v);
      if (rows.empty()) return Status::Ok();  // no matching fact
      if (!have_key || rows.size() < candidates.size()) candidates = rows;
      have_key = true;
    }
    if (have_key) {
      // Index lists are ascending in scan position, so matches come in
      // the same order as a full scan would find them.
      for (RowId pos : candidates) {
        SEQLOG_RETURN_IF_ERROR(CheckDeadline());
        SEQLOG_RETURN_IF_ERROR(
            MatchTuple(step, si, key_vals, rel->RowAt(pos)));
      }
      return Status::Ok();
    }
    for (RowId pos = 0; pos < rel->size(); ++pos) {
      SEQLOG_RETURN_IF_ERROR(CheckDeadline());
      SEQLOG_RETURN_IF_ERROR(
          MatchTuple(step, si, key_vals, rel->RowAt(pos)));
    }
    return Status::Ok();
  }

  Status MatchTuple(const LiteralStep& step, size_t si,
                    const std::vector<SeqId>& key_vals, TupleView tuple) {
    return MatchArg(step, si, key_vals, tuple, 0);
  }

  /// Processes argument `ai` of a matched fact, recursing to the next
  /// argument (and the next literal after the last one). Recursion is
  /// needed because an inverse-suffix argument can bind its base
  /// variable to several domain candidates.
  Status MatchArg(const LiteralStep& step, size_t si,
                  const std::vector<SeqId>& key_vals, TupleView tuple,
                  size_t ai) {
    if (ai == step.args.size()) return Step(si + 1);
    const CSeqTerm& arg = *step.args[ai];
    switch (step.modes[ai]) {
      case ArgMode::kKey:
        if (tuple[ai] != key_vals[ai]) return Status::Ok();
        return MatchArg(step, si, key_vals, tuple, ai + 1);
      case ArgMode::kCollector: {
        uint32_t var = arg.var;
        if (env_.seq_bound[var]) {
          // Same variable collected by an earlier argument of this
          // literal: equality check.
          if (env_.seq_vals[var] != tuple[ai]) return Status::Ok();
          return MatchArg(step, si, key_vals, tuple, ai + 1);
        }
        env_.BindSeq(var, tuple[ai]);
        Status status = MatchArg(step, si, key_vals, tuple, ai + 1);
        env_.seq_bound[var] = 0;
        return status;
      }
      case ArgMode::kPostCheck: {
        SEQLOG_ASSIGN_OR_RETURN(std::optional<SeqId> v,
                                EvalSeqTerm(arg, env_, ctx_->pool));
        if (!v.has_value() || *v != tuple[ai]) return Status::Ok();
        return MatchArg(step, si, key_vals, tuple, ai + 1);
      }
      case ArgMode::kInverseSuffix:
        return SolveSuffix(step, si, key_vals, tuple, ai);
    }
    return Status::Internal("unknown arg mode");
  }

  /// Inverse matching of B[lo:end] = tuple[ai]: every candidate B has
  /// length len(v) + lo - 1, so scan only that length bucket of the
  /// domain and compare suffixes.
  Status SolveSuffix(const LiteralStep& step, size_t si,
                     const std::vector<SeqId>& key_vals, TupleView tuple,
                     size_t ai) {
    const CSeqTerm& arg = *step.args[ai];
    // `lo` is end-free (planner invariant), so base_len is irrelevant.
    int64_t lo = EvalIndexTerm(*arg.lo, env_, /*base_len=*/0);
    if (lo < 1) return Status::Ok();  // undefined for every B
    SeqView v = ctx_->pool->View(tuple[ai]);
    size_t target_len = v.size() + static_cast<size_t>(lo) - 1;
    uint32_t var = arg.var;
    for (SeqId candidate : ctx_->domain->WithLength(target_len)) {
      SEQLOG_RETURN_IF_ERROR(CheckDeadline());
      SeqView c = ctx_->pool->View(candidate);
      if (!std::equal(v.begin(), v.end(),
                      c.begin() + static_cast<size_t>(lo) - 1)) {
        continue;
      }
      env_.BindSeq(var, candidate);
      Status status = MatchArg(step, si, key_vals, tuple, ai + 1);
      env_.seq_bound[var] = 0;
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  Status Compare(const LiteralStep& step, size_t si) {
    const CSeqTerm& lhs = *step.args[0];
    const CSeqTerm& rhs = *step.args[1];
    if (step.bind_side >= 0) {
      const CSeqTerm& binder = step.bind_side == 0 ? lhs : rhs;
      const CSeqTerm& value_term = step.bind_side == 0 ? rhs : lhs;
      SEQLOG_ASSIGN_OR_RETURN(std::optional<SeqId> v,
                              EvalSeqTerm(value_term, env_, ctx_->pool));
      if (!v.has_value()) return Status::Ok();
      // Substitutions range over the extended active domain
      // (Definition 1): only bind values that are in it.
      if (!ctx_->domain->Contains(*v)) return Status::Ok();
      if (env_.seq_bound[binder.var]) {
        // Bound by enumeration order quirks: compare instead.
        if (env_.seq_vals[binder.var] != *v) return Status::Ok();
        return Step(si + 1);
      }
      env_.BindSeq(binder.var, *v);
      Status status = Step(si + 1);
      env_.seq_bound[binder.var] = 0;
      return status;
    }
    SEQLOG_ASSIGN_OR_RETURN(std::optional<SeqId> l,
                            EvalSeqTerm(lhs, env_, ctx_->pool));
    if (!l.has_value()) return Status::Ok();
    SEQLOG_ASSIGN_OR_RETURN(std::optional<SeqId> r,
                            EvalSeqTerm(rhs, env_, ctx_->pool));
    if (!r.has_value()) return Status::Ok();
    bool pass = step.kind == LiteralStep::Kind::kEq ? (*l == *r)
                                                    : (*l != *r);
    if (!pass) return Status::Ok();
    return Step(si + 1);
  }

  /// Enumerates unbound head variables, then emits the head fact.
  Status EnumerateHead(size_t vi) {
    if (vi == plan_.head_enum_vars.size()) {
      return EmitHead();
    }
    VarRef v = plan_.head_enum_vars[vi];
    if (v.is_index) {
      int64_t max_int = ctx_->domain->MaxInt();
      for (int64_t value = 0; value <= max_int; ++value) {
        SEQLOG_RETURN_IF_ERROR(CheckDeadline());
        env_.BindIdx(v.id, value);
        SEQLOG_RETURN_IF_ERROR(EnumerateHead(vi + 1));
      }
      env_.idx_bound[v.id] = 0;
    } else {
      for (SeqId value : ctx_->domain->sequences()) {
        SEQLOG_RETURN_IF_ERROR(CheckDeadline());
        env_.BindSeq(v.id, value);
        SEQLOG_RETURN_IF_ERROR(EnumerateHead(vi + 1));
      }
      env_.seq_bound[v.id] = 0;
    }
    return Status::Ok();
  }

  Status EmitHead() {
    ++ctx_->stats->derivations;
    tuple_.clear();
    for (const auto& arg : plan_.head_args) {
      SEQLOG_ASSIGN_OR_RETURN(std::optional<SeqId> v,
                              EvalSeqTerm(*arg, env_, ctx_->pool));
      if (!v.has_value()) return Status::Ok();  // theta(head) undefined
      if (ctx_->pool->Length(*v) > ctx_->limits->max_sequence_length) {
        return Status::ResourceExhausted(
            StrCat("derived sequence longer than ",
                   ctx_->limits->max_sequence_length, " symbols"));
      }
      tuple_.push_back(*v);
    }
    // Only facts new to the model count toward max_facts: the naive
    // strategy re-derives the whole model into every round's scratch.
    if (ctx_->out->Insert(plan_.head_pred, tuple_) &&
        !ctx_->full->Contains(plan_.head_pred, tuple_)) {
      ++ctx_->out_new;
      if (ctx_->existing_facts + ctx_->out_new > ctx_->limits->max_facts) {
        return Status::ResourceExhausted(
            StrCat("interpretation exceeded ", ctx_->limits->max_facts,
                   " facts"));
      }
    }
    return Status::Ok();
  }

  const ClausePlan& plan_;
  size_t delta_step_;
  FireContext* ctx_;
  Env env_;
  std::vector<SeqId> tuple_;
};

}  // namespace

Status FireClause(const ClausePlan& plan, size_t delta_step,
                  FireContext* ctx) {
  Firer firer(plan, delta_step, ctx);
  return firer.Run();
}

}  // namespace eval
}  // namespace seqlog
