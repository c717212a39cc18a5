// Batched execution: PreparedQuery::ExecuteBatch (query::Solver::Execute
// with many bindings).
//
// The load-bearing property is ANSWER PARITY: a batch of N bindings
// answers bit-identically to N independent PreparedQuery executions —
// same rows, same order, same per-item status — while paying for ONE
// semi-naive run instead of N (`runs` proves the amortisation). Parity
// is checked across the paper workloads (suffix membership, the genome
// pipeline, the text index), plus the edge cases: empty batches,
// duplicate bindings (seed relations are sets), EDB goals, per-item
// failures, and bindings that must not leak into each other's domain.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"

namespace seqlog {
namespace {

void RegisterGenomeMachines(Engine* engine) {
  auto transcribe =
      transducer::MakeTranscribe("transcribe", engine->symbols());
  ASSERT_TRUE(transcribe.ok()) << transcribe.status().ToString();
  auto translate =
      transducer::MakeTranslate("translate", engine->symbols());
  ASSERT_TRUE(translate.ok()) << translate.status().ToString();
  ASSERT_TRUE(engine->RegisterTransducer(transcribe.value()).ok());
  ASSERT_TRUE(engine->RegisterTransducer(translate.value()).ok());
}

/// One-value bindings for `probes`, interned like wire values.
std::vector<query::Binding> Bindings(Engine* engine,
                                     const std::vector<std::string>& probes) {
  std::vector<query::Binding> bindings;
  for (const std::string& probe : probes) {
    bindings.push_back({engine->pool()->FromChars(probe, engine->symbols())});
  }
  return bindings;
}

/// Runs one batch over `probes` and checks every item against its
/// independent ExecuteWith oracle.
void ExpectParity(Engine* engine, const char* goal,
                  const std::vector<std::string>& probes) {
  SCOPED_TRACE(goal);
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Snapshot snapshot = engine->PublishSnapshot();
  const std::vector<query::Binding> bindings = Bindings(engine, probes);

  query::SolveOptions options;
  BatchResultSet result = prepared->ExecuteBatch(snapshot, bindings, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.results.size(), probes.size());
  // The whole batch rides ONE fixpoint run — the amortisation claim.
  EXPECT_EQ(result.runs, 1u);

  for (size_t i = 0; i < bindings.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i) + " probe '" + probes[i] +
                 "'");
    ResultSet oracle = prepared->ExecuteWith(snapshot, bindings[i], options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_TRUE(result.results[i].ok())
        << result.results[i].status().ToString();
    EXPECT_EQ(result.results[i].Materialize(), oracle.Materialize());
  }
}

TEST(ExecuteBatch, SuffixParity) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ttttgggg"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"gattaca"}).ok());
  // Hits, misses, the empty suffix, full-sequence suffixes.
  std::vector<std::string> probes = {"acgt",    "gggg", "t", "zz",
                                     "",        "gattaca", "attaca",
                                     "acgtacgt", "cgt",  "x"};
  ExpectParity(&engine, "?- suffix($1).", probes);
}

TEST(ExecuteBatch, GenomeParity) {
  Engine engine;
  RegisterGenomeMachines(&engine);
  ASSERT_TRUE(engine.LoadProgram(programs::kGenomePipeline).ok());
  std::vector<std::string> dna = {"acgtac", "ttgaca", "cccggg",
                                  "gattac", "aaaaaa"};
  for (const std::string& d : dna) {
    ASSERT_TRUE(engine.AddFact("dnaseq", {d}).ok());
  }
  std::vector<std::string> probes = dna;
  probes.push_back("acacac");  // miss: not in the database
  ExpectParity(&engine, "?- rnaseq($1, X).", probes);
}

TEST(ExecuteBatch, TextIndexParity) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kTextIndex).ok());
  for (const char* doc : {"abababab", "babab", "aabbaabb"}) {
    ASSERT_TRUE(engine.AddFact("doc", {doc}).ok());
  }
  std::vector<std::string> probes = {"abab", "baba", "aabb", "bbbb",
                                     "ab"};
  ExpectParity(&engine, "?- hit($1, D).", probes);
}

TEST(ExecuteBatch, BindingsStayOutOfEachOthersDomain) {
  // t's head variable is bound only by the domain, so the run enumerates
  // its domain. The binding zz is not data: it must neither answer
  // itself nor widen the domain the binding ab's answers range over.
  Engine engine;
  ASSERT_TRUE(
      engine.LoadProgram("p(X, Y) :- r(X), t(Y).\nt(Y) :- true.\n").ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- p($1, Y).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Snapshot snapshot = engine.PublishSnapshot();
  const std::vector<query::Binding> bindings =
      Bindings(&engine, {"ab", "zz"});

  BatchResultSet result = prepared->ExecuteBatch(snapshot, bindings);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.results.size(), 2u);
  const std::vector<RenderedRow> expected = {
      {"ab", ""}, {"ab", "a"}, {"ab", "ab"}, {"ab", "b"}};
  EXPECT_EQ(result.results[0].Materialize(), expected);
  EXPECT_TRUE(result.results[1].empty());
  EXPECT_EQ(prepared->ExecuteWith(snapshot, bindings[0]).Materialize(),
            expected);
  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_EQ(engine.Query("p").value(), expected);
}

TEST(ExecuteBatch, EmptyBatchIsOkAndFree) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  BatchResultSet result = prepared->ExecuteBatch(snapshot, {});
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.results.empty());
  EXPECT_EQ(result.runs, 0u);
}

TEST(ExecuteBatch, DuplicateBindingsEachGetFullAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  // The same probe five times: seed relations are sets, so the run
  // sees one seed — but every item still answers in full.
  const std::vector<query::Binding> bindings =
      Bindings(&engine, std::vector<std::string>(5, "cgt"));
  BatchResultSet result = prepared->ExecuteBatch(snapshot, bindings);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.results.size(), 5u);
  EXPECT_EQ(result.runs, 1u);
  ResultSet oracle = prepared->ExecuteWith(snapshot, bindings[0]);
  for (const ResultSet& rs : result.results) {
    EXPECT_EQ(rs.Materialize(), oracle.Materialize());
  }
}

TEST(ExecuteBatch, EdbGoalsAnswerByDirectScanWithZeroRuns) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ttgg"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- r($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  BatchResultSet result = prepared->ExecuteBatch(
      snapshot, Bindings(&engine, {"acgt", "ttgg", "gg"}));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.runs, 0u);  // no fixpoint at all
  EXPECT_EQ(result.results[0].size(), 1u);
  EXPECT_EQ(result.results[1].size(), 1u);
  EXPECT_EQ(result.results[2].size(), 0u);
}

TEST(ExecuteBatch, PerItemFailuresDoNotFailTheBatch) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  std::vector<query::Binding> bindings = Bindings(&engine, {"cgt"});
  // An unbound parameter: this item fails alone.
  bindings.push_back({std::nullopt});

  BatchResultSet result = prepared->ExecuteBatch(snapshot, bindings);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.results.size(), 2u);
  EXPECT_TRUE(result.results[0].ok());
  EXPECT_EQ(result.results[0].size(), 1u);
  EXPECT_EQ(result.results[1].status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExecuteBatch, InvalidSnapshotIsRefused) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  BatchResultSet result = prepared->ExecuteBatch(Snapshot(), {});
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

/// Executions through the batch path never re-parse or re-rewrite: the
/// prepared counters stay at their Prepare-time values.
TEST(ExecuteBatch, BatchPathPerformsZeroReparsing) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();
  PreparedQueryStats before = prepared->stats();

  BatchResultSet result = prepared->ExecuteBatch(
      snapshot, Bindings(&engine, {"t", "gt", "cgt"}));
  ASSERT_TRUE(result.status.ok());

  PreparedQueryStats after = prepared->stats();
  EXPECT_EQ(after.goal_parses, before.goal_parses);
  EXPECT_EQ(after.magic_rewrites, before.magic_rewrites);
  EXPECT_EQ(after.plan_compilations, before.plan_compilations);
}

}  // namespace
}  // namespace seqlog
