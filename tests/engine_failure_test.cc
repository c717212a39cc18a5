// Failure-injection tests: every user-facing error path of the Engine.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "transducer/builder.h"
#include "transducer/library.h"

namespace seqlog {
namespace {

TEST(EngineFailure, EvaluateWithoutProgram) {
  Engine engine;
  eval::EvalOutcome outcome = engine.Evaluate();
  EXPECT_EQ(outcome.status.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineFailure, QueryBeforeEvaluate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  Status s = engine.Query("p").status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // The one-line hint must name both recovery paths.
  EXPECT_EQ(s.message(), "no model computed; call Evaluate or use Prepare");
}

TEST(EngineFailure, QueryIdsBeforeEvaluate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());  // facts alone: no model
  Status s = engine.QueryIds("p").status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.message(), "no model computed; call Evaluate or use Prepare");
}

TEST(EngineFailure, QueryAfterLoadProgramInvalidatesModel) {
  // LoadProgram resets the model: querying again needs a new Evaluate.
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  ASSERT_TRUE(engine.Query("p").ok());
  ASSERT_TRUE(engine.LoadProgram("q(X) :- r(X).").ok());
  EXPECT_EQ(engine.Query("p").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineFailure, QueryUnknownPredicate) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  EXPECT_EQ(engine.Query("nope").status().code(), StatusCode::kNotFound);
}

TEST(EngineFailure, ParseErrorsSurfaceWithPositions) {
  Engine engine;
  Status s = engine.LoadProgram("p(X :- r(X).");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("1:"), std::string::npos) << s.ToString();
}

TEST(EngineFailure, LoadFailureKeepsPreviousProgram) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  ASSERT_FALSE(engine.LoadProgram("p(X) :- ").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  EXPECT_TRUE(engine.Evaluate().status.ok());  // old program still there
}

TEST(EngineFailure, FactArityConflict) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  Status s = engine.AddFact("r", {"a", "b"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EngineFailure, ProgramFactArityConflict) {
  Engine engine;
  ASSERT_TRUE(engine.AddFact("r", {"a", "b"}).ok());
  Status s = engine.LoadProgram("p(X) :- r(X).");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EngineFailure, NullTransducerRejected) {
  Engine engine;
  EXPECT_FALSE(engine.RegisterTransducer(nullptr).ok());
}

TEST(EngineFailure, StuckMachineDerivesNothing) {
  // A partial machine makes theta undefined at the term: no fact, no
  // error (Section 7.1 semantics).
  Engine engine;
  SymbolTable* symbols = engine.symbols();
  transducer::TransducerBuilder b("picky", 1);
  transducer::StateId q = b.State("q0");
  b.Add(q, {transducer::SymPattern::Exact(symbols->Intern("a"))}, q,
        {transducer::HeadMove::kAdvance}, transducer::Output::Echo(0));
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine.RegisterTransducer(t.value()).ok());
  ASSERT_TRUE(engine.LoadProgram("p(@picky(X)) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"aaa"}).ok());
  ASSERT_TRUE(engine.AddFact("r", {"ab"}).ok());  // sticks the machine
  eval::EvalOutcome outcome = engine.Evaluate();
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  auto rows = engine.Query("p");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), (std::vector<RenderedRow>{{"aaa"}}));
}

TEST(EngineFailure, MachineOutputBudgetAbortsEvaluation) {
  // Unlike a stuck machine, an exhausted machine budget is a real error
  // and aborts evaluation.
  Engine engine;
  transducer::TransducerBuilder b("hungry", 1);
  transducer::StateId q = b.State("q0");
  auto append = transducer::MakeAppend("app2", 2);
  ASSERT_TRUE(append.ok());
  b.Add(q, {transducer::SymPattern::Any()}, q,
        {transducer::HeadMove::kAdvance},
        transducer::Output::Call(append.value()));
  b.SetMaxOutputLength(8);
  auto t = b.Build();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(engine.RegisterTransducer(t.value()).ok());
  ASSERT_TRUE(engine.LoadProgram("p(@hungry(X)) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"aaaaaa"}).ok());  // 36 > 8
  eval::EvalOutcome outcome = engine.Evaluate();
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
}

TEST(EngineFailure, TimeBudget) {
  Engine engine;
  // A program that keeps concatenating: without other budgets the time
  // limit must fire.
  ASSERT_TRUE(engine.LoadProgram("p(X ++ a) :- p(X).\np(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  eval::EvalOptions options;
  options.limits.max_millis = 50;
  options.limits.max_iterations = 100000000;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
}

TEST(EngineFailure, ClearFactsResets) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  ASSERT_TRUE(engine.AddFact("r", {"a"}).ok());
  ASSERT_TRUE(engine.Evaluate().status.ok());
  engine.ClearFacts();
  EXPECT_EQ(engine.edb().TotalFacts(), 0u);
  ASSERT_TRUE(engine.Evaluate().status.ok());
  auto rows = engine.Query("p");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(EngineFailure, DomainBudgetOnHugeEdbSequence) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram("p(X) :- r(X).").ok());
  std::string big;
  for (int i = 0; i < 400; ++i) big += static_cast<char>('a' + (i % 26));
  ASSERT_TRUE(engine.AddFact("r", {big}).ok());
  eval::EvalOptions options;
  options.limits.max_domain_sequences = 1000;  // 400*401/2 >> 1000
  eval::EvalOutcome outcome = engine.Evaluate(options);
  EXPECT_EQ(outcome.status.code(), StatusCode::kResourceExhausted);
}

// The fact budget counts each new fact once, so a run at the budget edge
// has the same outcome at every requested width: p derives 200 facts
// twice over 400 EDB facts, 600 in all.
TEST(EngineFailure, FactBudgetEdgeIsWidthInvariant) {
  // Only facts new to the model count toward max_facts, so the edge is
  // the same under every strategy — naive re-derives the whole model
  // into every round's scratch database.
  auto run = [](eval::Strategy strategy, size_t threads, size_t max_facts) {
    Engine engine;
    EXPECT_TRUE(engine.LoadProgram("p(X) :- a(X).\np(X) :- b(X).").ok());
    for (int i = 0; i < 200; ++i) {
      std::string s;
      for (int bit = 7; bit >= 0; --bit) s += (i >> bit) & 1 ? 'b' : 'a';
      EXPECT_TRUE(engine.AddFact("a", {s}).ok());
      EXPECT_TRUE(engine.AddFact("b", {s}).ok());
    }
    eval::EvalOptions options;
    options.strategy = strategy;
    options.num_threads = threads;
    options.limits.max_facts = max_facts;
    return engine.Evaluate(options);
  };
  for (eval::Strategy strategy :
       {eval::Strategy::kSemiNaive, eval::Strategy::kNaive,
        eval::Strategy::kStratified}) {
    SCOPED_TRACE("strategy=" + std::to_string(static_cast<int>(strategy)));
    const eval::EvalOutcome fits = run(strategy, 1, 600);
    ASSERT_TRUE(fits.status.ok()) << fits.status.ToString();
    EXPECT_EQ(fits.stats.facts, 600u);
    const eval::EvalOutcome over = run(strategy, 1, 599);
    EXPECT_EQ(over.status.code(), StatusCode::kResourceExhausted);
    for (size_t threads : {0u, 2u, 8u}) {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      const eval::EvalOutcome at_edge = run(strategy, threads, 600);
      EXPECT_EQ(at_edge.status.code(), fits.status.code());
      EXPECT_EQ(at_edge.stats.facts, fits.stats.facts);
      const eval::EvalOutcome past_edge = run(strategy, threads, 599);
      EXPECT_EQ(past_edge.status.code(), over.status.code());
      EXPECT_EQ(past_edge.stats.facts, over.stats.facts);
    }
  }
}

}  // namespace
}  // namespace seqlog
