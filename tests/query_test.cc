// Goal-directed query subsystem: adornments, magic rewrite, Solver.
//
// The load-bearing property: on every paper-example program with a
// ground(able) goal, a prepared goal (Prepare + Execute) returns exactly
// the full fixpoint (computed with the naive oracle strategy) restricted
// to the goal — while deriving fewer facts whenever the goal is
// selective.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/programs.h"
#include "query/adornment.h"
#include "query/magic.h"
#include "transducer/genome.h"
#include "transducer/library.h"

namespace seqlog {
namespace {

using RowList = std::vector<RenderedRow>;
using Pattern = std::vector<std::optional<std::string>>;

/// A goal's answers (rendered, sorted), status and counters: Prepare +
/// Execute over the live EDB.
struct Solved {
  Status status;
  std::vector<RenderedRow> answers;
  query::SolveStats stats;
};

Solved SolveGoal(Engine* engine, const std::string& goal,
                 const query::SolveOptions& options = {}) {
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  if (!prepared.ok()) return Solved{prepared.status(), {}, {}};
  ResultSet rs = prepared->Execute(options);
  return Solved{rs.status(), rs.Materialize(), rs.stats()};
}

/// Naive full fixpoint of `engine`, restricted to `pred` rows matching
/// `pattern` (nullopt = any value).
RowList FullRestricted(Engine* engine, const std::string& pred,
                       const Pattern& pattern) {
  eval::EvalOptions options;
  options.strategy = eval::Strategy::kNaive;
  eval::EvalOutcome outcome = engine->Evaluate(options);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  Result<RowList> rows = engine->Query(pred);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  RowList out;
  if (!rows.ok()) return out;
  for (const RenderedRow& row : rows.value()) {
    bool match = row.size() == pattern.size();
    for (size_t i = 0; match && i < row.size(); ++i) {
      if (pattern[i].has_value() && row[i] != *pattern[i]) match = false;
    }
    if (match) out.push_back(row);
  }
  return out;
}

/// The property: answers(goal) == naive full fixpoint restricted to goal.
void ExpectMagicMatchesNaive(Engine* engine, const std::string& goal,
                             const std::string& pred,
                             const Pattern& pattern) {
  Solved solved = SolveGoal(engine, goal);
  ASSERT_TRUE(solved.status.ok())
      << goal << ": " << solved.status.ToString();
  EXPECT_EQ(solved.answers, FullRestricted(engine, pred, pattern))
      << "magic != naive for goal " << goal;
}

// ------------------------------------------------------------ adornment
TEST(Adornment, SuffixGoalIsBindableAndBound) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  auto result =
      query::AdornProgram(engine.program(), "suffix", {true});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // X is guarded by r(X) and X[N:end] is non-constructive.
  EXPECT_EQ(result->goal_adornment, "b");
  ASSERT_EQ(result->reachable.size(), 1u);
  EXPECT_EQ(result->reachable[0].first, "suffix");
}

TEST(Adornment, ConstructiveHeadPositionIsDemoted) {
  Engine engine;
  auto transcribe =
      transducer::MakeTranscribe("transcribe", engine.symbols());
  ASSERT_TRUE(transcribe.ok());
  ASSERT_TRUE(engine.RegisterTransducer(transcribe.value()).ok());
  auto translate = transducer::MakeTranslate("translate", engine.symbols());
  ASSERT_TRUE(translate.ok());
  ASSERT_TRUE(engine.RegisterTransducer(translate.value()).ok());
  ASSERT_TRUE(engine.LoadProgram(programs::kGenomePipeline).ok());

  // rnaseq(D, @transcribe(D)): D is bindable, the @-term is a sink.
  auto result = query::AdornProgram(engine.program(), "rnaseq",
                                    {true, true});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->goal_adornment, "bf");
  // Demand never reaches proteinseq: it depends on rnaseq, not the
  // other way around.
  for (const auto& [pred, adornment] : result->reachable) {
    EXPECT_NE(pred, "proteinseq") << adornment;
  }
}

TEST(Adornment, UnguardedHeadVariableIsNotBindable) {
  Engine engine;
  // rep1(X, X) :- true. leaves X unguarded: binding it from a goal
  // would substitute goal constants for a domain enumeration.
  ASSERT_TRUE(engine.LoadProgram(programs::kRep1).ok());
  auto result = query::AdornProgram(engine.program(), "rep1",
                                    {true, true});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->goal_adornment, "ff");
}

TEST(Adornment, UnknownGoalPredicateIsRejected) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  auto result = query::AdornProgram(engine.program(), "nosuch", {true});
  EXPECT_FALSE(result.ok());
}

TEST(Adornment, NamingConventions) {
  EXPECT_EQ(query::AdornedName("p", "bf"), "p__bf");
  EXPECT_EQ(query::MagicName("p", "bf"), "magic__p__bf");
}

// --------------------------------------------------------------- Solve
TEST(Solve, BoundSuffixGoalDerivesFewerFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgtacgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ttttgggg"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"cgcgcgcg"}).ok());

  Solved solved = SolveGoal(&engine, "?- suffix(acgt).");
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_EQ(solved.answers, (RowList{{"acgt"}}));
  EXPECT_EQ(solved.stats.goal_adornment, "b");

  eval::EvalOutcome full = engine.Evaluate();
  ASSERT_TRUE(full.status.ok());
  size_t full_derived = full.stats.facts - engine.edb().TotalFacts();
  // Full evaluation materialises every suffix of every sequence; the
  // demand run derives the goal fact plus a handful of magic atoms.
  EXPECT_LT(solved.stats.derived_facts, full_derived);
  EXPECT_GE(full_derived, 5 * (solved.stats.derived_facts -
                               solved.stats.magic_facts));
}

TEST(Solve, MissGoalReturnsNoAnswers) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  Solved solved = SolveGoal(&engine, "?- suffix(ttt).");
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_TRUE(solved.answers.empty());
}

TEST(Solve, AllFreeGoalDegeneratesToFullEvaluation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"cd"}).ok());
  Solved solved = SolveGoal(&engine, "?- suffix(X).");
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_EQ(solved.stats.goal_adornment, "f");
  // Same answers as Evaluate + Query.
  ASSERT_TRUE(engine.Evaluate().status.ok());
  Result<RowList> full = engine.Query("suffix");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(solved.answers, full.value());
}

TEST(Solve, GoalOnEdbPredicate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"tt"}).ok());

  Solved all = SolveGoal(&engine, "?- r(X).");
  ASSERT_TRUE(all.status.ok()) << all.status.ToString();
  EXPECT_EQ(all.answers, (RowList{{"acgt"}, {"tt"}}));

  Solved hit = SolveGoal(&engine, "?- r(tt).");
  ASSERT_TRUE(hit.status.ok());
  EXPECT_EQ(hit.answers, (RowList{{"tt"}}));

  Solved miss = SolveGoal(&engine, "?- r(gg).");
  ASSERT_TRUE(miss.status.ok());
  EXPECT_TRUE(miss.answers.empty());
}

TEST(Solve, UnknownPredicateIsNotFound) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Solved solved = SolveGoal(&engine, "?- nosuch(acgt).");
  EXPECT_EQ(solved.status.code(), StatusCode::kNotFound)
      << solved.status.ToString();
}

TEST(Solve, ArityMismatchIsInvalid) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Solved solved = SolveGoal(&engine, "?- suffix(a, b).");
  EXPECT_EQ(solved.status.code(), StatusCode::kInvalidArgument)
      << solved.status.ToString();
}

TEST(Solve, NonGroundCompositeArgumentIsInvalid) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  Solved solved = SolveGoal(&engine, "?- suffix(X[1:2]).");
  EXPECT_EQ(solved.status.code(), StatusCode::kInvalidArgument)
      << solved.status.ToString();
}

TEST(Solve, GroundCompositeArgumentsAreEvaluated) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acgt"}).ok());
  // acgtacgt[5:end] = acgt, ac ++ gt = acgt.
  for (const char* goal :
       {"?- suffix(acgtacgt[5:end]).", "?- suffix(ac ++ gt)."}) {
    Solved solved = SolveGoal(&engine, goal);
    ASSERT_TRUE(solved.status.ok()) << goal << ": "
                                    << solved.status.ToString();
    EXPECT_EQ(solved.answers, (RowList{{"acgt"}})) << goal;
  }
}

TEST(Solve, RepeatedGoalVariablesJoin) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("pair(X, Y) :- r(X), r(Y).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"b"}).ok());
  Solved solved = SolveGoal(&engine, "?- pair(X, X).");
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_EQ(solved.answers, (RowList{{"a", "a"}, {"b", "b"}}));
}

TEST(Solve, PredicateWithBothFactsAndClausesImportsItsFacts) {
  Engine engine;
  // `reach` is extensional (edges) *and* derived (closure).
  ASSERT_TRUE(
      engine.LoadProgram("reach(X, Z) :- reach(X, Y), reach(Y, Z).").ok());
  ASSERT_TRUE(engine.AddFact("reach", {"a", "b"}).ok());
  ASSERT_TRUE(engine.AddFact("reach", {"b", "c"}).ok());
  ASSERT_TRUE(engine.AddFact("reach", {"c", "d"}).ok());
  Solved solved = SolveGoal(&engine, "?- reach(a, X).");
  ASSERT_TRUE(solved.status.ok()) << solved.status.ToString();
  EXPECT_EQ(solved.answers, (RowList{{"a", "b"}, {"a", "c"}, {"a", "d"}}));
}

TEST(Solve, UnsafeAfterRewriteIsRejected) {
  // Strongly safe as written (the only constructive edge p -> e lies on
  // no cycle), but the magic guard edge p__f -> magic__p__f closes the
  // cycle magic__p__f -> s__b -> p__f, so demand evaluation loses the
  // Theorem 8 guarantee and the goal must be refused.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X ++ a) :- e(X).\n"
                                 "s(X) :- p(X).\n"
                                 "h(X) :- s(X), p(X).\n")
                  .ok());
  ASSERT_TRUE(engine.AnalyzeSafety().strongly_safe);
  Solved solved = SolveGoal(&engine, "?- h(aa).");
  EXPECT_EQ(solved.status.code(), StatusCode::kFailedPrecondition)
      << solved.status.ToString();
}

TEST(Solve, GoalConstantsStayOutOfTheDomain) {
  // q's head variable is bound only by the domain, so the bound goal on p
  // demotes q to free and the demand run enumerates its domain. The goal
  // constant zz is not data: it must not enter that domain, or p(zz)
  // would answer a fact the fixpoint does not hold.
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgram("p(X) :- q(X).\n"
                               "q(X) :- true.\n"
                               "r(X) :- s(X).\n")
                  .ok());
  ASSERT_TRUE(engine.AddFact("s", {"ab"}).ok());

  Solved live = SolveGoal(&engine, "?- p(zz).");
  ASSERT_TRUE(live.status.ok()) << live.status.ToString();
  EXPECT_TRUE(live.answers.empty());
  Result<PreparedQuery> prepared = engine.Prepare("?- p($1).");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Bind(1, "zz").ok());
  ResultSet snapshot = prepared->Execute(engine.PublishSnapshot());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot.empty());
  // A domain value is still an answer.
  EXPECT_EQ(SolveGoal(&engine, "?- p(ab).").answers, (RowList{{"ab"}}));

  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_EQ(engine.Query("p").value(),
            (RowList{{""}, {"a"}, {"ab"}, {"b"}}));
}

TEST(Solve, DivergentProgramStillBudgeted) {
  // kRep2 is not strongly safe to begin with, so the goal is accepted
  // and hits the evaluation budget exactly like Evaluate would.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kRep2).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  query::SolveOptions options;
  options.eval.limits.max_domain_sequences = 5000;
  options.eval.limits.max_iterations = 1000;
  Solved solved = SolveGoal(&engine, "?- rep2(abab, ab).", options);
  EXPECT_EQ(solved.status.code(), StatusCode::kResourceExhausted)
      << solved.status.ToString();
}

// ------------------------------------------- paper-example property set
TEST(SolveProperty, Ex11Suffixes) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kSuffixes).ok());
  ASSERT_TRUE(engine.AddFact("r", {"abc"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"aabb"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- suffix(bc).", "suffix", {{"bc"}});
  ExpectMagicMatchesNaive(&engine, "?- suffix(eps).", "suffix", {{""}});
  ExpectMagicMatchesNaive(&engine, "?- suffix(zz).", "suffix", {{"zz"}});
  ExpectMagicMatchesNaive(&engine, "?- suffix(X).", "suffix",
                          {std::nullopt});
}

TEST(SolveProperty, Ex12ConcatPairs) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kConcatPairs).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"c"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- answer(abc).", "answer", {{"abc"}});
  ExpectMagicMatchesNaive(&engine, "?- answer(ba).", "answer", {{"ba"}});
  ExpectMagicMatchesNaive(&engine, "?- answer(X).", "answer",
                          {std::nullopt});
}

TEST(SolveProperty, Ex13AnBnCn) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kAbcN).ok());
  ASSERT_TRUE(engine.AddFact("r", {"aabbcc"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"abc"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"acb"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- answer(aabbcc).", "answer",
                          {{"aabbcc"}});
  ExpectMagicMatchesNaive(&engine, "?- answer(acb).", "answer", {{"acb"}});
}

TEST(SolveProperty, Ex14Reverse) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kReverse).ok());
  ASSERT_TRUE(engine.AddFact("r", {"abc"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- answer(cba).", "answer", {{"cba"}});
  ExpectMagicMatchesNaive(&engine, "?- answer(abc).", "answer", {{"abc"}});
  ExpectMagicMatchesNaive(&engine, "?- answer(X).", "answer",
                          {std::nullopt});
}

TEST(SolveProperty, Ex15Rep1) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kRep1).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ababab"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- rep1(ababab, ab).", "rep1",
                          {{"ababab"}, {"ab"}});
  ExpectMagicMatchesNaive(&engine, "?- rep1(ababab, aba).", "rep1",
                          {{"ababab"}, {"aba"}});
  ExpectMagicMatchesNaive(&engine, "?- rep1(abab, X).", "rep1",
                          {{"abab"}, std::nullopt});
}

TEST(SolveProperty, Ex51Stratified) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kStratifiedDouble).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- double(abab).", "double",
                          {{"abab"}});
  ExpectMagicMatchesNaive(&engine, "?- quadruple(abababab).", "quadruple",
                          {{"abababab"}});
  ExpectMagicMatchesNaive(&engine, "?- quadruple(ab).", "quadruple",
                          {{"ab"}});
}

TEST(SolveProperty, Ex71GenomePipeline) {
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
  ExpectMagicMatchesNaive(&engine, "?- rnaseq(acgtacgt, X).", "rnaseq",
                          {{"acgtacgt"}, std::nullopt});
  ExpectMagicMatchesNaive(&engine, "?- proteinseq(acgtacgt, X).",
                          "proteinseq", {{"acgtacgt"}, std::nullopt});
  ExpectMagicMatchesNaive(&engine, "?- rnaseq(gg, X).", "rnaseq",
                          {{"gg"}, std::nullopt});
}

TEST(SolveProperty, Ex72TranscribeSimulation) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(programs::kTranscribeSimulation).ok());
  ASSERT_TRUE(engine.AddFact("dnaseq", {"acgt"}).ok());
  ASSERT_TRUE(engine.AddFact("dnaseq", {"ttag"}).ok());
  ExpectMagicMatchesNaive(&engine, "?- rnaseq(acgt, X).", "rnaseq",
                          {{"acgt"}, std::nullopt});
  ExpectMagicMatchesNaive(&engine, "?- rnaseq(acgt, ugca).", "rnaseq",
                          {{"acgt"}, {"ugca"}});
}

}  // namespace
}  // namespace seqlog
