// The batch execution tier (serve/batch_executor.h, query::ExecuteBatch).
//
// The load-bearing property is ANSWER PARITY: a batch of N bindings
// answers bit-identically to N independent PreparedQuery executions —
// same rows, same order, same per-item status — while paying for ONE
// semi-naive run instead of N (stats.evaluations proves the
// amortisation). Parity is checked across the paper workloads (suffix
// membership, the genome pipeline, the text index), plus the edge
// cases: empty batches, duplicate bindings (seed relations are sets),
// EDB goals, per-item failures, and cross-query fusion.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "serve/batch_executor.h"
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

/// Runs one single-query batch over `probes` and checks every item
/// against its independent ExecuteWith oracle.
void ExpectParity(Engine* engine, const char* goal,
                  const std::vector<std::string>& probes) {
  SCOPED_TRACE(goal);
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  Snapshot snapshot = engine->PublishSnapshot();

  serve::BatchExecutor batch(engine, {&*prepared});
  std::vector<serve::BatchExecutor::Item> items;
  for (const std::string& probe : probes) {
    Result<serve::BatchExecutor::Item> item = batch.MakeItem(0, {probe});
    ASSERT_TRUE(item.ok()) << item.status().ToString();
    items.push_back(std::move(item).value());
  }

  query::SolveOptions options;
  serve::BatchResult result = batch.Execute(snapshot, items, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.results.size(), probes.size());
  EXPECT_EQ(result.stats.items, probes.size());
  // The whole batch rides ONE fixpoint run — the amortisation claim.
  EXPECT_EQ(result.stats.evaluations, 1u);

  for (size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i) + " probe '" + probes[i] +
                 "'");
    ResultSet oracle =
        prepared->ExecuteWith(snapshot, items[i].params, options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    EXPECT_TRUE(result.results[i].ok())
        << result.results[i].status().ToString();
    EXPECT_EQ(result.results[i].Materialize(), oracle.Materialize());
  }
}

TEST(BatchExecutor, SuffixParityAcrossThreadCounts) {
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

TEST(BatchExecutor, GenomeParityAcrossThreadCounts) {
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

TEST(BatchExecutor, TextIndexParityAcrossThreadCounts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kTextIndex).ok());
  for (const char* doc : {"abababab", "babab", "aabbaabb"}) {
    ASSERT_TRUE(engine.AddFact("doc", {doc}).ok());
  }
  std::vector<std::string> probes = {"abab", "baba", "aabb", "bbbb",
                                     "ab"};
  ExpectParity(&engine, "?- hit($1, D).", probes);
}

TEST(BatchExecutor, EmptyBatchIsOkAndFree) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  serve::BatchExecutor batch(&engine, {&*prepared});
  serve::BatchResult result = batch.Execute(snapshot, {});
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.results.empty());
  EXPECT_EQ(result.stats.evaluations, 0u);
}

TEST(BatchExecutor, DuplicateBindingsEachGetFullAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  serve::BatchExecutor batch(&engine, {&*prepared});
  // The same probe five times: seed relations are sets, so the run
  // sees one seed — but every item still answers in full.
  std::vector<serve::BatchExecutor::Item> items;
  for (int i = 0; i < 5; ++i) {
    items.push_back(batch.MakeItem(0, {"cgt"}).value());
  }
  serve::BatchResult result = batch.Execute(snapshot, items);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.results.size(), 5u);
  EXPECT_EQ(result.stats.evaluations, 1u);
  ResultSet oracle = prepared->ExecuteWith(snapshot, items[0].params);
  for (const ResultSet& rs : result.results) {
    EXPECT_EQ(rs.Materialize(), oracle.Materialize());
  }
}

TEST(BatchExecutor, EdbGoalsAnswerByDirectScanWithZeroRuns) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ttgg"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- r($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  serve::BatchExecutor batch(&engine, {&*prepared});
  std::vector<serve::BatchExecutor::Item> items;
  for (const char* probe : {"acgt", "ttgg", "gg"}) {
    items.push_back(batch.MakeItem(0, {probe}).value());
  }
  serve::BatchResult result = batch.Execute(snapshot, items);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.evaluations, 0u);  // no fixpoint at all
  EXPECT_EQ(result.results[0].size(), 1u);
  EXPECT_EQ(result.results[1].size(), 1u);
  EXPECT_EQ(result.results[2].size(), 0u);
}

TEST(BatchExecutor, PerItemFailuresDoNotFailTheBatch) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  serve::BatchExecutor batch(&engine, {&*prepared});
  std::vector<serve::BatchExecutor::Item> items;
  items.push_back(batch.MakeItem(0, {"cgt"}).value());
  // An unbound parameter: this item fails alone.
  serve::BatchExecutor::Item unbound;
  unbound.query = 0;
  unbound.params = {std::nullopt};
  items.push_back(unbound);
  // An out-of-range query index: also an individual failure.
  serve::BatchExecutor::Item bad_query;
  bad_query.query = 7;
  items.push_back(bad_query);

  serve::BatchResult result = batch.Execute(snapshot, items);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.results.size(), 3u);
  EXPECT_TRUE(result.results[0].ok());
  EXPECT_EQ(result.results[0].size(), 1u);
  EXPECT_EQ(result.results[1].status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.results[2].status().code(), StatusCode::kOutOfRange);
}

TEST(BatchExecutor, MakeItemValidatesIndexAndArity) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  serve::BatchExecutor batch(&engine, {&*prepared});
  EXPECT_EQ(batch.MakeItem(1, {"x"}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(batch.MakeItem(0, {"x", "y"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.MakeItem(0, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchExecutor, InvalidSnapshotIsRefused) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  serve::BatchExecutor batch(&engine, {&*prepared});
  serve::BatchResult result = batch.Execute(Snapshot(), {});
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

/// Two distinct IDB goals over one program: fusion compiles their
/// rewrites into ONE evaluator, a mixed batch rides one run, and every
/// item still matches its solo oracle.
TEST(BatchExecutor, FusesDistinctQueriesIntoOneRun) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram(
                      "suffix(X[N:end]) :- r(X).\n"
                      "prefix(X[1:N]) :- r(X).\n")
                  .ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtac"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ttgg"}).ok());
  Result<PreparedQuery> suffix = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(suffix.ok()) << suffix.status().ToString();
  Result<PreparedQuery> prefix = engine.Prepare("?- prefix($1).");
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  Snapshot snapshot = engine.PublishSnapshot();

  serve::BatchExecutor batch(&engine, {&*suffix, &*prefix});
  EXPECT_TRUE(batch.fused()) << batch.fusion_status().ToString();

  std::vector<serve::BatchExecutor::Item> items;
  items.push_back(batch.MakeItem(0, {"tac"}).value());   // suffix hit
  items.push_back(batch.MakeItem(1, {"acg"}).value());   // prefix hit
  items.push_back(batch.MakeItem(0, {"acg"}).value());   // suffix miss
  items.push_back(batch.MakeItem(1, {"ttg"}).value());   // prefix hit
  serve::BatchResult result = batch.Execute(snapshot, items);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.stats.evaluations, 1u);  // ONE run for BOTH queries
  EXPECT_TRUE(result.stats.fused);

  const PreparedQuery* queries[] = {&*suffix, &*prefix};
  for (size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    ResultSet oracle = queries[items[i].query]->ExecuteWith(
        snapshot, items[i].params);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(result.results[i].Materialize(), oracle.Materialize());
  }
}

TEST(BatchExecutor, FusionOffFallsBackToGroupwiseRunsWithParity) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram(
                      "suffix(X[N:end]) :- r(X).\n"
                      "prefix(X[1:N]) :- r(X).\n")
                  .ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtac"}).ok());
  Result<PreparedQuery> suffix = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(suffix.ok());
  Result<PreparedQuery> prefix = engine.Prepare("?- prefix($1).");
  ASSERT_TRUE(prefix.ok());
  Snapshot snapshot = engine.PublishSnapshot();

  serve::BatchOptions no_fuse;
  no_fuse.fuse = false;
  serve::BatchExecutor batch(&engine, {&*suffix, &*prefix}, no_fuse);
  EXPECT_FALSE(batch.fused());

  std::vector<serve::BatchExecutor::Item> items;
  items.push_back(batch.MakeItem(0, {"tac"}).value());
  items.push_back(batch.MakeItem(1, {"acg"}).value());
  items.push_back(batch.MakeItem(0, {"c"}).value());
  serve::BatchResult result = batch.Execute(snapshot, items);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.stats.evaluations, 2u);  // one run per distinct goal
  const PreparedQuery* queries[] = {&*suffix, &*prefix};
  for (size_t i = 0; i < items.size(); ++i) {
    ResultSet oracle = queries[items[i].query]->ExecuteWith(
        snapshot, items[i].params);
    EXPECT_EQ(result.results[i].Materialize(), oracle.Materialize());
  }
}

/// Executions through the batch path never re-parse or re-rewrite: the
/// prepared counters stay at their Prepare-time values.
TEST(BatchExecutor, BatchPathPerformsZeroReparsing) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  Snapshot snapshot = engine.PublishSnapshot();
  PreparedQueryStats before = prepared->stats();

  serve::BatchExecutor batch(&engine, {&*prepared});
  std::vector<serve::BatchExecutor::Item> items;
  for (const char* probe : {"t", "gt", "cgt"}) {
    items.push_back(batch.MakeItem(0, {probe}).value());
  }
  serve::BatchResult result = batch.Execute(snapshot, items);
  ASSERT_TRUE(result.status.ok());

  PreparedQueryStats after = prepared->stats();
  EXPECT_EQ(after.goal_parses, before.goal_parses);
  EXPECT_EQ(after.magic_rewrites, before.magic_rewrites);
  EXPECT_EQ(after.plan_compilations, before.plan_compilations);
}

}  // namespace
}  // namespace seqlog
