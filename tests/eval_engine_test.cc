// Unit tests for the evaluation engine: planning, substitution semantics
// (Section 3.2), strategies, budgets, statistics.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/programs.h"
#include "eval/clause_plan.h"
#include "transducer/genome.h"
#include "transducer/library.h"

namespace seqlog {
namespace {

using RowList = std::vector<RenderedRow>;

RowList RunQuery(std::string_view program,
            const std::vector<std::pair<std::string, std::vector<std::string>>>&
                facts,
            std::string_view query,
            eval::Strategy strategy = eval::Strategy::kSemiNaive) {
  Engine engine;
  Status s = engine.LoadProgram(program);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (const auto& [pred, args] : facts) {
    EXPECT_TRUE(engine.AddFact(pred, args).ok());
  }
  eval::EvalOptions options;
  options.strategy = strategy;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  Result<RowList> rows = engine.Query(query);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? rows.value() : RowList{};
}

TEST(EvalEngine, PlainDatalogJoin) {
  EXPECT_EQ(RunQuery("path(X, Y) :- edge(X, Y).\n"
                "path(X, Z) :- edge(X, Y), path(Y, Z).",
                {{"edge", {"a", "b"}}, {"edge", {"b", "c"}},
                 {"edge", {"c", "d"}}},
                "path"),
            (RowList{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"},
                     {"b", "d"}, {"c", "d"}}));
}

TEST(EvalEngine, UndefinedIndexTermsDeriveNothing) {
  // Section 3.2 definedness: theta(S[n1:n2]) is defined iff
  // 1 <= n1 <= n2+1 <= len+1. For X = "ab", X[4:end] = X[4:2] violates
  // n1 <= n2+1; the substitution is undefined and no head is derived.
  EXPECT_EQ(RunQuery("p(X[4:end]) :- r(X).", {{"r", {"ab"}}}, "p"),
            (RowList{}));
  // X[1:4] violates n2+1 <= len+1 (4+1 > 2+1).
  EXPECT_EQ(RunQuery("p(X[1:4]) :- r(X).", {{"r", {"ab"}}}, "p"),
            (RowList{}));
  // ...but [3:2] satisfies n1 = n2+1 and is the empty sequence, exactly
  // as uvwxy[3:2] = eps in the paper's substitution table.
  EXPECT_EQ(RunQuery("p(X[3:2]) :- r(X).", {{"r", {"ab"}}}, "p"),
            (RowList{{""}}));
  EXPECT_EQ(RunQuery("p(X[3:end]) :- r(X).", {{"r", {"ab"}}}, "p"),
            (RowList{{""}}));
}

TEST(EvalEngine, PointIndexing) {
  EXPECT_EQ(RunQuery("first(X[1]) :- r(X).\nlast(X[end]) :- r(X).",
                {{"r", {"abc"}}}, "first"),
            (RowList{{"a"}}));
  EXPECT_EQ(RunQuery("first(X[1]) :- r(X).\nlast(X[end]) :- r(X).",
                {{"r", {"abc"}}}, "last"),
            (RowList{{"c"}}));
}

TEST(EvalEngine, IndexArithmetic) {
  EXPECT_EQ(RunQuery("p(X[N+1:end-1]) :- r(X), q(X[1:N]).",
                {{"r", {"abcde"}}, {"q", {"ab"}}}, "p"),
            (RowList{{"cd"}}));
}

TEST(EvalEngine, EqualityBindsWithinDomain) {
  // Y = X[2:3] binds Y to a subsequence (always in the domain).
  EXPECT_EQ(RunQuery("p(Y) :- r(X), Y = X[2:3].", {{"r", {"abcd"}}}, "p"),
            (RowList{{"bc"}}));
}

TEST(EvalEngine, EqualityWithConstantOutsideDomainFails) {
  // Substitutions range over the extended active domain (Definition 1):
  // "xyz" is not in it, so Y can never be bound to it.
  EXPECT_EQ(RunQuery("p(Y) :- r(X), Y = xyz.", {{"r", {"ab"}}}, "p"),
            (RowList{}));
  // A constant inside the domain works.
  EXPECT_EQ(RunQuery("p(Y) :- r(X), Y = ab.", {{"r", {"ab"}}}, "p"),
            (RowList{{"ab"}}));
}

TEST(EvalEngine, InequalityFilters) {
  EXPECT_EQ(RunQuery("p(X, Y) :- r(X), r(Y), X != Y.",
                {{"r", {"a"}}, {"r", {"b"}}}, "p"),
            (RowList{{"a", "b"}, {"b", "a"}}));
}

TEST(EvalEngine, ConstantsInBodyMatch) {
  EXPECT_EQ(RunQuery("p(X) :- r(X, abc).",
                {{"r", {"u", "abc"}}, {"r", {"v", "abd"}}}, "p"),
            (RowList{{"u"}}));
}

TEST(EvalEngine, HeadConstantsDerive) {
  EXPECT_EQ(RunQuery("p(hello) :- r(X).", {{"r", {"x"}}}, "p"),
            (RowList{{"hello"}}));
}

TEST(EvalEngine, RepeatedVariableInLiteral) {
  EXPECT_EQ(RunQuery("p(X) :- r(X, X).",
                {{"r", {"a", "a"}}, {"r", {"a", "b"}}}, "p"),
            (RowList{{"a"}}));
}

TEST(EvalEngine, UnguardedHeadVariableEnumeratesDomain) {
  // q(Y) :- r(X): Y ranges over the whole extended active domain.
  RowList rows = RunQuery("q(Y) :- r(X).", {{"r", {"ab"}}}, "q");
  // Domain: eps, a, b, ab.
  EXPECT_EQ(rows, (RowList{{""}, {"a"}, {"ab"}, {"b"}}));
}

TEST(EvalEngine, InverseSuffixSolvesStructuralRecursion) {
  // up(X) :- up(X[2:end]) walks upward through the domain: from up(c),
  // derive every domain sequence whose suffix-from-2 is already in up.
  // The planner solves X from the matched fact via the domain's length
  // buckets (ArgMode::kInverseSuffix) instead of enumerating the domain.
  EXPECT_EQ(RunQuery("dom(X[N:end]) :- r(X).\n"  // just seeds the domain
                "up(c) :- true.\n"
                "up(X) :- up(X[2:end]).",
                {{"r", {"abc"}}}, "up"),
            (RowList{{"abc"}, {"bc"}, {"c"}}));
}

TEST(EvalEngine, InverseSuffixWithLargerOffset) {
  // X[3:end] = c forces len(X) = 3: only "abc" qualifies in the domain
  // of subsequences of "abc".
  EXPECT_EQ(RunQuery("p(X) :- r(q), s(X[3:end]).",
                {{"r", {"q"}}, {"s", {"c"}}, {"r", {"abc"}}}, "p"),
            (RowList{{"abc"}}));
}

TEST(EvalEngine, InverseSuffixEmptyValueMatchesLengthLoMinusOne) {
  // X[2:end] = eps forces len(X) = 1: every single-symbol domain
  // sequence qualifies (the definedness boundary n1 = end+1).
  EXPECT_EQ(RunQuery("p(X) :- s(X[2:end]).",
                {{"s", {""}}, {"s", {"ab"}}}, "p"),
            (RowList{{"a"}, {"b"}}));
}

TEST(EvalEngine, InverseSuffixPlanIsMarked) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("up(X) :- up(X[2:end]).").ok());
  eval::Evaluator ev(engine.catalog(), engine.pool(), engine.registry());
  ASSERT_TRUE(ev.SetProgram(engine.program()).ok());
  std::string dbg = eval::DebugString(ev.plans()[0], *engine.catalog());
  EXPECT_NE(dbg.find("inv"), std::string::npos) << dbg;
  // No domain enumeration for X is left in the plan.
  EXPECT_EQ(dbg.find("enum{X"), std::string::npos) << dbg;
}

TEST(EvalEngine, AllStrategiesAgreeOnStronglySafePrograms) {
  const char* program =
      "len2(X[1:2]) :- r(X).\n"
      "pair(X ++ Y) :- len2(X), len2(Y).\n";
  std::vector<std::pair<std::string, std::vector<std::string>>> facts = {
      {"r", {"abc"}}, {"r", {"xy"}}};
  RowList naive = RunQuery(program, facts, "pair", eval::Strategy::kNaive);
  RowList semi = RunQuery(program, facts, "pair", eval::Strategy::kSemiNaive);
  RowList strat = RunQuery(program, facts, "pair", eval::Strategy::kStratified);
  EXPECT_EQ(naive, semi);
  EXPECT_EQ(naive, strat);
  EXPECT_EQ(naive, (RowList{{"abab"}, {"abxy"}, {"xyab"}, {"xyxy"}}));
}

TEST(EvalEngine, StratifiedRefusesUnsafePrograms) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X ++ X) :- p(X).\np(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  eval::EvalOptions options;
  options.strategy = eval::Strategy::kStratified;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(outcome.status.message().find("constructive cycle"),
            std::string::npos)
      << outcome.status.ToString();
}

TEST(EvalEngine, IterationBudget) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X ++ a) :- p(X).\np(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  eval::EvalOptions options;
  options.limits.max_iterations = 10;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(outcome.stats.iterations, 10u);
}

TEST(EvalEngine, SequenceLengthBudget) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X ++ X) :- p(X).\np(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"aa"}).ok());
  eval::EvalOptions options;
  options.limits.max_sequence_length = 64;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(outcome.status.message().find("longer"), std::string::npos);
}

TEST(EvalEngine, FactBudget) {
  Engine engine;
  ASSERT_TRUE(
      engine.LoadProgram("p(X, Y) :- r(X), r(Y).").ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(engine.AddFact("r", {std::string(1, 'a' + (i % 26)) +
                                     std::to_string(i)}).ok());
  }
  eval::EvalOptions options;
  options.limits.max_facts = 100;  // 60 edb + 3600 derived > 100
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
}

TEST(EvalEngine, GrowthTracking) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(
      "rev(eps, eps) :- true.\n"
      "rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"abcd"}).ok());
  eval::EvalOptions options;
  options.track_growth = true;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_GE(outcome.stats.growth.size(), 4u);
  // Facts and domain grow monotonically.
  for (size_t i = 1; i < outcome.stats.growth.size(); ++i) {
    EXPECT_GE(outcome.stats.growth[i].first,
              outcome.stats.growth[i - 1].first);
    EXPECT_GE(outcome.stats.growth[i].second,
              outcome.stats.growth[i - 1].second);
  }
}

TEST(EvalEngine, StatsReportFactsAndDomain) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X[1:N]) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"abc"}).ok());
  eval::EvalOutcome outcome = engine.Evaluate();
  ASSERT_TRUE(outcome.status.ok());
  // p holds all prefixes: eps, a, ab, abc -> 4 facts + 1 edb fact.
  EXPECT_EQ(outcome.stats.facts, 5u);
  EXPECT_EQ(outcome.stats.domain_sequences, 7u);
  EXPECT_GT(outcome.stats.derivations, 0u);
  EXPECT_GE(outcome.stats.millis, 0.0);
}

// The phase timers split a run: each phase is measured, and together
// they stay within the total.
TEST(EvalEngine, PhaseTimersAccountTheRun) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X ++ X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"abc"}).ok());
  eval::EvalOutcome outcome = engine.Evaluate();
  ASSERT_TRUE(outcome.status.ok());
  const eval::EvalStats& stats = outcome.stats;
  EXPECT_GT(stats.fire_millis, 0.0);
  EXPECT_GT(stats.domain_load_millis, 0.0);
  // abcabc is new to the domain, so the barrier closes it.
  EXPECT_GT(stats.domain_merge_millis, 0.0);
  EXPECT_GT(stats.relation_merge_millis, 0.0);
  EXPECT_LE(stats.fire_millis + stats.domain_millis() +
                stats.relation_merge_millis,
            stats.millis);
}

TEST(EvalEngine, TransducerTermsInHeads) {
  Engine engine;
  auto square = transducer::MakeSquare("square");
  ASSERT_TRUE(square.ok());
  ASSERT_TRUE(engine.RegisterTransducer(square.value()).ok());
  ASSERT_TRUE(engine.LoadProgram("sq(@square(X)) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  Result<RowList> rows = engine.Query("sq");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), (RowList{{"abab"}}));
}

TEST(EvalEngine, ComposedTransducerTerms) {
  Engine engine;
  auto append = transducer::MakeAppend("append", 2);
  ASSERT_TRUE(append.ok());
  ASSERT_TRUE(engine.RegisterTransducer(append.value()).ok());
  ASSERT_TRUE(
      engine.LoadProgram("p(@append(X, @append(X, X))) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  Result<RowList> rows = engine.Query("p");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), (RowList{{"ababab"}}));
}

TEST(EvalEngine, UnknownTransducerFailsAtLoad) {
  Engine engine;
  Status s = engine.LoadProgram("p(@nope(X)) :- r(X).");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(EvalEngine, TransducerArityCheckedAtLoad) {
  Engine engine;
  auto append = transducer::MakeAppend("append", 2);
  ASSERT_TRUE(append.ok());
  ASSERT_TRUE(engine.RegisterTransducer(append.value()).ok());
  Status s = engine.LoadProgram("p(@append(X)) :- r(X).");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EvalEngine, PlanDebugStringShowsSchedule) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(
      "rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).").ok());
  eval::Evaluator ev(engine.catalog(), engine.pool(), engine.registry());
  ASSERT_TRUE(ev.SetProgram(engine.program()).ok());
  std::string dbg = eval::DebugString(ev.plans()[0], *engine.catalog());
  EXPECT_NE(dbg.find("constructive"), std::string::npos);
  EXPECT_NE(dbg.find("domain-sensitive"), std::string::npos);
  EXPECT_NE(dbg.find("enum{N"), std::string::npos);

  // The header line names what the clause reads from the domain: Ex. 7.1
  // binds every variable through a database literal, Ex. 1.1 enumerates
  // an index, the text index's `occurs` binds W by equality (and also
  // enumerates I and J), rep1's head variable is bound by the domain.
  const std::pair<const char*, const char*> cases[] = {
      {programs::kGenomePipeline, "domain: none"},
      {programs::kSuffixes, "domain: range"},
      {programs::kTextIndex, "domain: membership"},
      {"rep1(X, X) :- true.", "domain: enumeration"}};
  for (const auto& [program, read] : cases) {
    SCOPED_TRACE(program);
    Engine e;
    ASSERT_TRUE(
        e.RegisterTransducer(*transducer::MakeTranscribe("transcribe",
                                                         e.symbols()))
            .ok());
    ASSERT_TRUE(
        e.RegisterTransducer(*transducer::MakeTranslate("translate",
                                                        e.symbols()))
            .ok());
    ASSERT_TRUE(e.LoadProgram(program).ok());
    eval::Evaluator plans(e.catalog(), e.pool(), e.registry());
    ASSERT_TRUE(plans.SetProgram(e.program()).ok());
    // Ex. 7.1 has two clauses, both unread; elsewhere the first clause.
    const size_t checked = program == programs::kGenomePipeline ? 2 : 1;
    for (size_t i = 0; i < checked; ++i) {
      std::string header = eval::DebugString(plans.plans()[i], *e.catalog());
      header.resize(header.find('\n'));
      EXPECT_NE(header.find(read), std::string::npos) << header;
    }
  }
}

}  // namespace
}  // namespace seqlog
