#include "core/prepared_query.h"

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "core/engine.h"

namespace seqlog {

struct PreparedQuery::Impl {
  Impl(Engine* engine_in, std::string goal_text_in,
       query::PreparedGoal prepared_in,
       std::vector<analysis::Diagnostic> warnings_in)
      : engine(engine_in),
        solver(engine_in->catalog(), engine_in->pool(),
               engine_in->registry()),
        goal_text(std::move(goal_text_in)),
        prepared(std::move(prepared_in)),
        warnings(std::move(warnings_in)),
        bound(prepared.param_count) {
    goal_parses = 1;
    magic_rewrites = prepared.edb ? 0 : 1;
    plan_compilations = prepared.edb ? 0 : 1;
  }

  Engine* engine;
  query::Solver solver;
  std::string goal_text;
  query::PreparedGoal prepared;
  std::vector<analysis::Diagnostic> warnings;
  std::vector<std::optional<SeqId>> bound;
  size_t goal_parses = 0;
  size_t magic_rewrites = 0;
  size_t plan_compilations = 0;
  mutable std::atomic<uint64_t> executions{0};
};

PreparedQuery::PreparedQuery(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

PreparedQuery PreparedQuery::Create(
    Engine* engine, std::string goal_text, query::PreparedGoal prepared,
    std::vector<analysis::Diagnostic> warnings) {
  return PreparedQuery(std::make_unique<Impl>(engine, std::move(goal_text),
                                              std::move(prepared),
                                              std::move(warnings)));
}
PreparedQuery::PreparedQuery(PreparedQuery&&) noexcept = default;
PreparedQuery& PreparedQuery::operator=(PreparedQuery&&) noexcept = default;
PreparedQuery::~PreparedQuery() = default;

const std::string& PreparedQuery::goal() const { return impl_->goal_text; }

size_t PreparedQuery::param_count() const {
  return impl_->prepared.param_count;
}

const query::Adornment& PreparedQuery::goal_adornment() const {
  return impl_->prepared.goal_adornment;
}

const std::vector<analysis::Diagnostic>& PreparedQuery::warnings() const {
  return impl_->warnings;
}

Status PreparedQuery::Bind(size_t param, std::string_view value) {
  if (param == 0 || param > impl_->prepared.param_count) {
    return Status::OutOfRange(
        StrCat("no parameter $", param, " in goal '", impl_->goal_text,
               "' (", impl_->prepared.param_count, " parameter(s))"));
  }
  impl_->bound[param - 1] =
      impl_->engine->pool()->FromChars(value, impl_->engine->symbols());
  return Status::Ok();
}

Status PreparedQuery::BindId(size_t param, SeqId value) {
  if (param == 0 || param > impl_->prepared.param_count) {
    return Status::OutOfRange(
        StrCat("no parameter $", param, " in goal '", impl_->goal_text,
               "' (", impl_->prepared.param_count, " parameter(s))"));
  }
  impl_->bound[param - 1] = value;
  return Status::Ok();
}

BatchResultSet PreparedQuery::Run(
    const Database& db, std::shared_ptr<const ExtendedDomain> base_domain,
    std::shared_ptr<const Database> keepalive,
    std::span<const query::Binding> bindings,
    const query::SolveOptions& options) const {
  query::BatchSolveResult solved = impl_->solver.Execute(
      impl_->prepared, db, bindings, options, std::move(base_domain));
  impl_->executions.fetch_add(bindings.size(), std::memory_order_relaxed);
  BatchResultSet out;
  out.status = std::move(solved.status);
  out.runs = solved.evaluations;
  out.results.reserve(solved.items.size());
  for (query::SolveResult& item : solved.items) {
    out.results.push_back(ResultSet(
        std::move(item), impl_->prepared.goal.args.size(),
        impl_->engine->pool(), impl_->engine->symbols(), keepalive));
  }
  return out;
}

ResultSet PreparedQuery::Execute(const query::SolveOptions& options) const {
  return std::move(Run(impl_->engine->edb(), /*base_domain=*/nullptr,
                       /*keepalive=*/nullptr, {&impl_->bound, 1}, options)
                       .results.front());
}

ResultSet PreparedQuery::Execute(const Snapshot& snapshot,
                                 const query::SolveOptions& options) const {
  return ExecuteWith(snapshot, impl_->bound, options);
}

ResultSet PreparedQuery::ExecuteWith(
    const Snapshot& snapshot,
    const std::vector<std::optional<SeqId>>& params,
    const query::SolveOptions& options) const {
  if (!snapshot.valid()) {
    return ResultSet(
        Status::InvalidArgument("invalid snapshot (default-constructed?)"));
  }
  return std::move(Run(snapshot.db(), snapshot.domain_base(),
                       snapshot.shared(), {&params, 1}, options)
                       .results.front());
}

BatchResultSet PreparedQuery::ExecuteBatch(
    const Snapshot& snapshot, std::span<const query::Binding> bindings,
    const query::SolveOptions& options) const {
  if (!snapshot.valid()) {
    BatchResultSet out;
    out.status =
        Status::InvalidArgument("invalid snapshot (default-constructed?)");
    return out;
  }
  return Run(snapshot.db(), snapshot.domain_base(), snapshot.shared(),
             bindings, options);
}

PreparedQueryStats PreparedQuery::stats() const {
  PreparedQueryStats stats;
  stats.goal_parses = impl_->goal_parses;
  stats.magic_rewrites = impl_->magic_rewrites;
  stats.plan_compilations = impl_->plan_compilations;
  stats.executions = impl_->executions.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace seqlog
