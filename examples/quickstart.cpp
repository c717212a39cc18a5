// seqlog quickstart: load a Sequence Datalog program, add facts,
// evaluate, query.
//
//   $ ./quickstart
//
// Covers the two interpreted term forms of the language: indexed terms
// (structural recursion) and constructive terms (concatenation), on the
// paper's opening examples.
#include <iostream>

#include "core/engine.h"

int main() {
  seqlog::Engine engine;

  // A program mixing structural extraction and construction:
  //  * every suffix of every r-sequence            (Example 1.1)
  //  * every pairwise concatenation                (Example 1.2)
  //  * the reverse of every r-sequence             (Example 1.4)
  seqlog::Status status = engine.LoadProgram(R"(
    % lint-expect: SL-E010 — reverse (Example 1.4) is finite but not
    % strongly safe; the budgeted semi-naive run below handles it.
    suffix(X[N:end]) :- r(X).
    pair(X ++ Y) :- r(X), r(Y).
    answer(Y) :- r(X), reverse(X, Y).
    reverse(eps, eps) :- true.
    reverse(X[1:N+1], X[N+1] ++ Y) :- r(X), reverse(X[1:N], Y).
  )");
  if (!status.ok()) {
    std::cerr << "load failed: " << status.ToString() << "\n";
    return 1;
  }

  for (const char* seq : {"acgt", "tgg"}) {
    status = engine.AddFact("r", {seq});
    if (!status.ok()) {
      std::cerr << "fact failed: " << status.ToString() << "\n";
      return 1;
    }
  }

  seqlog::eval::EvalOutcome outcome = engine.Evaluate();
  if (!outcome.status.ok()) {
    std::cerr << "evaluation failed: " << outcome.status.ToString() << "\n";
    return 1;
  }
  std::cout << "evaluated in " << outcome.stats.iterations
            << " iterations, " << outcome.stats.facts << " facts, domain "
            << outcome.stats.domain_sequences << " sequences\n\n";

  for (const char* pred : {"suffix", "pair", "answer"}) {
    seqlog::Result<std::vector<seqlog::RenderedRow>> rows =
        engine.Query(pred);
    if (!rows.ok()) {
      std::cerr << "query failed: " << rows.status().ToString() << "\n";
      return 1;
    }
    std::cout << pred << ":\n";
    for (const seqlog::RenderedRow& row : rows.value()) {
      std::cout << "  (";
      for (size_t i = 0; i < row.size(); ++i) {
        std::cout << (i > 0 ? ", " : "") << '"' << row[i] << '"';
      }
      std::cout << ")\n";
    }
    std::cout << "\n";
  }

  // Goal-directed querying: a prepared goal derives only the facts
  // demanded by the goal (magic sets), instead of the whole model.
  seqlog::Result<seqlog::PreparedQuery> goal =
      engine.Prepare("?- suffix(cgt).");
  if (!goal.ok()) {
    std::cerr << "prepare failed: " << goal.status().ToString() << "\n";
    return 1;
  }
  seqlog::ResultSet solved = goal->Execute();
  if (!solved.ok()) {
    std::cerr << "solve failed: " << solved.status().ToString() << "\n";
    return 1;
  }
  std::cout << "?- suffix(cgt). => " << solved.size()
            << " answer(s), " << solved.stats().derived_facts
            << " facts derived on demand (vs " << outcome.stats.facts
            << " in the full model)\n";
  if (solved.empty()) {
    std::cerr << "expected suffix(cgt) to hold\n";
    return 1;
  }

  // Prepared queries: parse + adorn + rewrite + compile ONCE, execute
  // many times with different constants — the right shape for point
  // lookups served over and over. Snapshots freeze the facts so readers
  // are isolated from (and can run concurrently with) later AddFacts.
  seqlog::Result<seqlog::PreparedQuery> prepared =
      engine.Prepare("?- suffix($1).");
  if (!prepared.ok()) {
    std::cerr << "prepare failed: " << prepared.status().ToString() << "\n";
    return 1;
  }
  seqlog::Snapshot snapshot = engine.PublishSnapshot();
  for (const char* probe : {"cgt", "gg", "tgg", "acgt"}) {
    if (!prepared->Bind(1, probe).ok()) return 1;
    seqlog::ResultSet rs = prepared->Execute(snapshot);
    if (!rs.ok()) {
      std::cerr << "execute failed: " << rs.status().ToString() << "\n";
      return 1;
    }
    std::cout << "prepared suffix(\"" << probe << "\") => "
              << (rs.empty() ? "no" : "yes") << " ("
              << rs.stats().derived_facts << " facts derived)\n";
  }
  seqlog::PreparedQueryStats pq_stats = prepared->stats();
  std::cout << "prepared once, executed " << pq_stats.executions
            << "x: " << pq_stats.goal_parses << " parse, "
            << pq_stats.magic_rewrites << " rewrite\n";
  if (pq_stats.goal_parses != 1 || pq_stats.magic_rewrites != 1) {
    std::cerr << "prepared path re-parsed or re-rewrote!\n";
    return 1;
  }
  return 0;
}
