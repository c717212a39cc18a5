// Prepared queries, parameterized goals, snapshots and the ResultSet
// cursor API (core/prepared_query.h, core/snapshot.h, core/result_set.h).
//
// The load-bearing properties:
//  * PreparedQuery::Execute answers exactly what a freshly prepared
//    ground goal answers for the same goal instance — while performing
//    ZERO parsing and ZERO magic rewriting per call (the stats()
//    counters prove it);
//  * snapshots freeze the EDB at publish time: later AddFacts are
//    invisible to old snapshots and visible to new ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"

namespace seqlog {
namespace {

using RowList = std::vector<RenderedRow>;

/// The rendered, sorted answers of a ground `goal` (the oracle).
RowList SolveAnswers(Engine* engine, const std::string& goal) {
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  EXPECT_TRUE(prepared.ok()) << goal << ": " << prepared.status().ToString();
  if (!prepared.ok()) return {};
  ResultSet rs = prepared->Execute();
  EXPECT_TRUE(rs.ok()) << goal << ": " << rs.status().ToString();
  return rs.Materialize();
}

TEST(PreparedQuery, MatchesSolveAcrossRebinds) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ttttgggg"}).ok());

  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->param_count(), 1u);
  EXPECT_EQ(prepared->goal_adornment(), "b");

  for (const char* probe : {"acgt", "gggg", "t", "zz", ""}) {
    ASSERT_TRUE(prepared->Bind(1, probe).ok());
    ResultSet rs = prepared->Execute();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs.Materialize(),
              SolveAnswers(&engine, std::string("?- suffix(") +
                                        (probe[0] ? probe : "eps") + ")."))
        << "probe " << probe;
  }
}

TEST(PreparedQuery, RebindPerformsZeroParsingAndZeroRewriting) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());

  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  PreparedQueryStats before = prepared->stats();
  EXPECT_EQ(before.goal_parses, 1u);
  EXPECT_EQ(before.magic_rewrites, 1u);
  EXPECT_EQ(before.plan_compilations, 1u);
  EXPECT_EQ(before.executions, 0u);

  size_t rewritten_clauses = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(prepared->Bind(1, i % 2 == 0 ? "acgt" : "tacgt").ok());
    ResultSet rs = prepared->Execute();
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.size(), 1u);
    if (i == 0) rewritten_clauses = rs.stats().rewritten_clauses;
    // The cached rewrite is byte-identical across rebinds.
    EXPECT_EQ(rs.stats().rewritten_clauses, rewritten_clauses);
  }

  PreparedQueryStats after = prepared->stats();
  EXPECT_EQ(after.goal_parses, 1u);        // never re-parsed
  EXPECT_EQ(after.magic_rewrites, 1u);     // never re-rewritten
  EXPECT_EQ(after.plan_compilations, 1u);  // never re-compiled
  EXPECT_EQ(after.executions, 10u);
}

TEST(PreparedQuery, UnboundParameterIsFailedPrecondition) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  ResultSet rs = prepared->Execute();
  EXPECT_EQ(rs.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rs.status().message().find("$1"), std::string::npos)
      << rs.status().ToString();
  EXPECT_TRUE(rs.empty());
}

TEST(PreparedQuery, BindRejectsUnknownParameterIndex) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->Bind(2, "x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(prepared->Bind(0, "x").code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(prepared->Bind(1, "x").ok());
}

TEST(PreparedQuery, NonConsecutiveParametersRejected) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("pair(X, Y) :- r(X), r(Y).").ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- pair($2, X).");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prepared.status().message().find("$1"), std::string::npos);
}

TEST(PreparedQuery, SolveOnParameterizedGoalReportsUnbound) {
  // A one-shot goal cannot bind parameters: executing the goal surfaces
  // the unbound-parameter precondition instead of garbage.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->Execute().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PreparedQuery, EdbGoalNeedsNoRewrite) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"tt"}).ok());

  Result<PreparedQuery> prepared = engine.Prepare("?- r($1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  PreparedQueryStats stats = prepared->stats();
  EXPECT_EQ(stats.goal_parses, 1u);
  EXPECT_EQ(stats.magic_rewrites, 0u);  // database scan, no magic
  ASSERT_TRUE(prepared->Bind(1, "tt").ok());
  ResultSet rs = prepared->Execute();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.Materialize(), (RowList{{"tt"}}));
  ASSERT_TRUE(prepared->Bind(1, "gg").ok());
  EXPECT_TRUE(prepared->Execute().empty());
}

TEST(PreparedQuery, RepeatedParameterJoins) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("pair(X, Y) :- r(X), r(Y).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"b"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- pair($1, $1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->param_count(), 1u);
  ASSERT_TRUE(prepared->Bind(1, "a").ok());
  ResultSet rs = prepared->Execute();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.Materialize(), (RowList{{"a", "a"}}));
}

TEST(PreparedQuery, MixedGroundParamAndFreeArguments) {
  Engine engine;
  auto transcribe =
      transducer::MakeTranscribe("transcribe", engine.symbols());
  ASSERT_TRUE(transcribe.ok());
  ASSERT_TRUE(engine.RegisterTransducer(transcribe.value()).ok());
  auto translate = transducer::MakeTranslate("translate", engine.symbols());
  ASSERT_TRUE(translate.ok());
  ASSERT_TRUE(engine.RegisterTransducer(translate.value()).ok());
  ASSERT_TRUE(engine.LoadProgram(programs::kGenomePipeline).ok());
  ASSERT_TRUE(engine.AddFact("dnaseq", {"acgtacgt"}).ok());
  ASSERT_TRUE(engine.AddFact("dnaseq", {"ttacgc"}).ok());

  Result<PreparedQuery> prepared = engine.Prepare("?- rnaseq($1, X).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (const char* dna : {"acgtacgt", "ttacgc", "gg"}) {
    ASSERT_TRUE(prepared->Bind(1, dna).ok());
    ResultSet rs = prepared->Execute();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs.Materialize(),
              SolveAnswers(&engine, std::string("?- rnaseq(") + dna +
                                        ", X)."))
        << dna;
  }
  EXPECT_EQ(prepared->stats().magic_rewrites, 1u);
}

TEST(PreparedQuery, AllFreeGoalDegeneratesToFullEvaluation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix(X).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->param_count(), 0u);
  ResultSet rs = prepared->Execute();
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_EQ(rs.Materialize(), engine.Query("suffix").value());
}

TEST(PreparedQuery, FactsAddedAfterPrepareAreVisible) {
  // The cached rewrite must not bake in which predicates currently have
  // facts: `reach` is derived AND extensional, and its facts arrive only
  // after Prepare.
  Engine engine;
  ASSERT_TRUE(
      engine.LoadProgram("reach(X, Z) :- reach(X, Y), reach(Y, Z).").ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- reach($1, X).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Bind(1, "a").ok());
  EXPECT_TRUE(prepared->Execute().empty());  // nothing yet

  ASSERT_TRUE(engine.AddFact("reach", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddFact("reach", {"b", "c"}).ok());
  ResultSet rs = prepared->Execute();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.Materialize(), (RowList{{"a", "b"}, {"a", "c"}}));
}

TEST(PreparedQuery, NotDemandEvaluableGoalRejectedAtPrepare) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X ++ a) :- e(X).\n"
                                 "s(X) :- p(X).\n"
                                 "h(X) :- s(X), p(X).\n")
                  .ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- h($1).");
  ASSERT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PreparedQuery, UnknownPredicateAndArityErrors) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  EXPECT_EQ(engine.Prepare("?- nosuch($1).").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Prepare("?- suffix($1, $2).").status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ snapshots
TEST(Snapshot, IsolatesReadersFromLaterFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(1, "gg").ok());

  Snapshot before = engine.PublishSnapshot();
  ASSERT_TRUE(before.valid());
  EXPECT_TRUE(prepared->Execute(before).empty());  // gg not a suffix yet

  ASSERT_TRUE(engine.AddFact("r", {"ttgg"}).ok());
  Snapshot after = engine.PublishSnapshot();
  EXPECT_GT(after.version(), before.version());

  EXPECT_TRUE(prepared->Execute(before).empty());   // frozen
  EXPECT_EQ(prepared->Execute(after).size(), 1u);   // sees ttgg
  EXPECT_EQ(prepared->Execute().size(), 1u);        // live EDB too
  EXPECT_EQ(before.TotalFacts(), 1u);
  EXPECT_EQ(after.TotalFacts(), 2u);
}

TEST(Snapshot, RepublishingUnchangedEdbReusesTheCopy) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  Snapshot s1 = engine.PublishSnapshot();
  Snapshot s2 = engine.PublishSnapshot();
  EXPECT_EQ(s1.version(), s2.version());
  EXPECT_EQ(s1.shared().get(), s2.shared().get());  // copy-on-publish
  ASSERT_TRUE(engine.AddFact("r", {"b"}).ok());
  Snapshot s3 = engine.PublishSnapshot();
  EXPECT_NE(s3.shared().get(), s1.shared().get());
}

TEST(Snapshot, InvalidSnapshotIsRejectedByExecute) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix(acgt).");
  ASSERT_TRUE(prepared.ok());
  Snapshot invalid;
  EXPECT_FALSE(invalid.valid());
  ResultSet rs = prepared->Execute(invalid);
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ ResultSet
TEST(ResultSetTest, CursorRendersOnDemand) {
  Engine engine;
  auto transcribe =
      transducer::MakeTranscribe("transcribe", engine.symbols());
  ASSERT_TRUE(transcribe.ok());
  ASSERT_TRUE(engine.RegisterTransducer(transcribe.value()).ok());
  auto translate = transducer::MakeTranslate("translate", engine.symbols());
  ASSERT_TRUE(translate.ok());
  ASSERT_TRUE(engine.RegisterTransducer(translate.value()).ok());
  ASSERT_TRUE(engine.LoadProgram(programs::kGenomePipeline).ok());
  ASSERT_TRUE(engine.AddFact("dnaseq", {"acgt"}).ok());

  Result<PreparedQuery> prepared = engine.Prepare("?- rnaseq(acgt, X).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ResultSet rs = prepared->Execute(engine.PublishSnapshot());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_FALSE(rs.empty());
  EXPECT_EQ(rs.arity(), 2u);

  Row row = rs[0];
  EXPECT_EQ(row.size(), 2u);
  EXPECT_EQ(row.value(0).Render(), "acgt");
  EXPECT_EQ(row.value(1).Render(), "ugca");
  EXPECT_EQ(row.value(1).Length(), 4u);
  EXPECT_EQ(row.ids().size(), 2u);
  EXPECT_EQ(row.ids()[0], rs.ids(0)[0]);

  size_t visited = 0;
  for (Row r : rs) {
    EXPECT_EQ(r.Render().size(), 2u);
    ++visited;
  }
  EXPECT_EQ(visited, 1u);
  EXPECT_EQ(rs.Materialize(), (RowList{{"acgt", "ugca"}}));
}

TEST(ResultSetTest, OutlivesItsSnapshotObject) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(1, "cgt").ok());
  ResultSet rs;
  {
    Snapshot scoped = engine.PublishSnapshot();
    rs = prepared->Execute(scoped);
  }  // Snapshot object gone; ResultSet pins the underlying database
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.Materialize(), (RowList{{"cgt"}}));
}

TEST(ResultSetTest, DefaultConstructedIsEmptyAndOk) {
  ResultSet rs;
  EXPECT_TRUE(rs.ok());
  EXPECT_TRUE(rs.empty());
  EXPECT_EQ(rs.size(), 0u);
  EXPECT_EQ(rs.begin(), rs.end());
  EXPECT_TRUE(rs.Materialize().empty());
}

TEST(PreparedQuery, NullaryGoalKeepsItsEmptyRow) {
  // A nullary goal that holds has exactly one answer: the empty tuple.
  // The cursor must report it (size 1, arity 0), matching Materialize.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("win :- r(X).").ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- win.");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  ResultSet miss = prepared->Execute();  // no facts: win is not derivable
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss.empty());
  EXPECT_EQ(miss.size(), 0u);

  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ResultSet hit = prepared->Execute();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(hit.empty());
  EXPECT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit.arity(), 0u);
  EXPECT_EQ(hit[0].size(), 0u);
  EXPECT_EQ(hit.Materialize(), SolveAnswers(&engine, "?- win."));
}

TEST(Snapshot, IncrementalPublishesMatchFreshEngine) {
  // Publishes are incremental (the previous closure is reused); answers
  // after many add/publish rounds must equal a from-scratch engine's.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());

  std::vector<std::string> facts;
  Snapshot snap;
  for (int i = 0; i < 6; ++i) {
    facts.push_back(std::string("seq") + static_cast<char>('a' + i));
    ASSERT_TRUE(engine.AddFact("r", {facts.back()}).ok());
    snap = engine.PublishSnapshot();  // one incremental publish per fact
  }

  Engine fresh;
  ASSERT_TRUE(fresh.LoadProgram(programs::kSuffixes).ok());
  for (const std::string& f : facts) {
    ASSERT_TRUE(fresh.AddFact("r", {f}).ok());
  }
  for (const char* probe : {"qa", "eqf", "seqc", "zz"}) {
    ASSERT_TRUE(prepared->Bind(1, probe).ok());
    ResultSet rs = prepared->Execute(snap);
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs.Materialize(),
              SolveAnswers(&fresh, std::string("?- suffix(") + probe + ")."))
        << probe;
  }
}

TEST(Snapshot, ClearFactsResetsThePublishCache) {
  // The incremental publish cache assumes append-only facts; ClearFacts
  // must drop it or stale sequences would leak into later snapshots'
  // domains (observable through domain-enumerating programs like rep1).
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kRep1).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- rep1(X, X).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ResultSet before = prepared->Execute(engine.PublishSnapshot());
  ASSERT_TRUE(before.ok());

  engine.ClearFacts();
  ASSERT_TRUE(engine.AddFact("r", {"cd"}).ok());
  ResultSet after = prepared->Execute(engine.PublishSnapshot());
  ASSERT_TRUE(after.ok());
  // The diagonal enumerates the domain: only cd's closure, not ab's.
  RowList rows = after.Materialize();
  for (const RenderedRow& row : rows) {
    EXPECT_EQ(row[0].find('a'), std::string::npos) << row[0];
    EXPECT_EQ(row[0].find('b'), std::string::npos) << row[0];
  }
  EXPECT_EQ(rows, SolveAnswers(&engine, "?- rep1(X, X)."));
}

TEST(Snapshot, DomainBudgetAppliesToSnapshotExecutionsToo) {
  // The snapshot's prebuilt closure must not smuggle the EDB past
  // max_domain_sequences: live and snapshot executions fail alike.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  std::string big;
  for (int i = 0; i < 80; ++i) big += static_cast<char>('a' + (i % 26));
  ASSERT_TRUE(engine.AddFact("r", {big}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- suffix($1).");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Bind(1, "ab").ok());
  query::SolveOptions options;
  options.eval.limits.max_domain_sequences = 100;  // << 80*81/2
  EXPECT_EQ(prepared->Execute(options).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(prepared->Execute(engine.PublishSnapshot(), options)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(PreparedQuery, BudgetExhaustionSurfacesStatus) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kRep2).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  Result<PreparedQuery> prepared = engine.Prepare("?- rep2($1, ab).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Bind(1, "abab").ok());
  query::SolveOptions options;
  options.eval.limits.max_domain_sequences = 5000;
  options.eval.limits.max_iterations = 1000;
  ResultSet rs = prepared->Execute(options);
  EXPECT_EQ(rs.status().code(), StatusCode::kResourceExhausted)
      << rs.status().ToString();
}

}  // namespace
}  // namespace seqlog
