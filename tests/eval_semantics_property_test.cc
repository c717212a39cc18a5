// Property tests: the three evaluation strategies compute the same least
// fixpoint (naive evaluation is the executable definition of the
// T-operator; semi-naive and stratified must agree with it), across a
// corpus of programs and randomised databases.
#include <gtest/gtest.h>

#include <random>

#include "core/engine.h"
#include "core/programs.h"
#include "transducer/library.h"

namespace seqlog {
namespace {

struct Corpus {
  const char* name;
  const char* program;
  std::vector<std::string> predicates;  // to compare
  bool strongly_safe;                   // stratified applicable
};

// Without this, gtest prints a Corpus as a byte dump whose pointer bytes
// change with every process (ASLR), and that dump is part of the ctest name.
void PrintTo(const Corpus& corpus, std::ostream* os) { *os << corpus.name; }

const Corpus kCorpus[] = {
    {"suffixes", programs::kSuffixes, {"suffix"}, true},
    {"concat_pairs", programs::kConcatPairs, {"answer"}, true},
    {"abc_n", programs::kAbcN, {"answer"}, true},
    {"reverse", programs::kReverse, {"answer", "reverse"}, false},
    {"rep1", programs::kRep1, {"rep1"}, true},
    {"stratified", programs::kStratifiedDouble,
     {"double", "quadruple"}, true},
    {"transcribe", programs::kTranscribeSimulation, {"rnaseq"}, false},
    {"prefix_pairs",
     "pre(X[1:N]) :- r(X).\n"
     "pair(X, Y) :- pre(X), pre(Y), X != Y.\n",
     {"pre", "pair"},
     true},
    {"equality_chain",
     "p(X) :- r(X), X[1] = X[end].\n"
     "q(X[2:end-1]) :- p(X).\n",
     {"p", "q"},
     true},
    // p reads the domain by membership only: zz, which no r fact
    // contains, becomes a member once c builds X ++ zz, and a
    // semi-naive round sees that only by re-firing p in full.
    {"membership_after_growth",
     "c(X ++ zz) :- r(X).\n"
     "p(X) :- X = zz.\n",
     {"c", "p"},
     true},
};

class StrategyAgreement : public ::testing::TestWithParam<Corpus> {};

std::vector<std::string> RandomSequences(unsigned seed, size_t count,
                                         size_t max_len,
                                         std::string_view alphabet) {
  std::mt19937 rng(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    std::uniform_int_distribution<size_t> len_dist(0, max_len);
    size_t len = len_dist(rng);
    std::string s;
    for (size_t j = 0; j < len; ++j) {
      s += alphabet[rng() % alphabet.size()];
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST_P(StrategyAgreement, NaiveSemiNaiveStratifiedAgree) {
  const Corpus& corpus = GetParam();
  for (unsigned seed : {1u, 2u, 3u}) {
    // The transcription program needs DNA; others get a generic alphabet.
    std::string_view alphabet =
        std::string_view(corpus.name) == "transcribe" ? "acgt" : "abc";
    std::vector<std::string> seqs = RandomSequences(seed, 3, 5, alphabet);

    std::map<eval::Strategy, std::map<std::string, std::vector<RenderedRow>>>
        results;
    std::vector<eval::Strategy> strategies = {eval::Strategy::kNaive,
                                              eval::Strategy::kSemiNaive};
    if (corpus.strongly_safe) {
      strategies.push_back(eval::Strategy::kStratified);
    }
    for (eval::Strategy strategy : strategies) {
      Engine engine;
      ASSERT_TRUE(engine.LoadProgram(corpus.program).ok());
      std::string base_pred =
          std::string_view(corpus.name) == "transcribe" ? "dnaseq" : "r";
      for (const std::string& s : seqs) {
        // The r/2 corpus entries are unary; reuse sequences.
        ASSERT_TRUE(engine.AddFact(base_pred, {s}).ok());
      }
      eval::EvalOptions options;
      options.strategy = strategy;
      options.limits.max_iterations = 2000;
      eval::EvalOutcome outcome = engine.Evaluate(options);
      ASSERT_TRUE(outcome.status.ok())
          << corpus.name << " seed=" << seed << " strategy="
          << static_cast<int>(strategy) << ": "
          << outcome.status.ToString();
      for (const std::string& pred : corpus.predicates) {
        auto rows = engine.Query(pred);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        results[strategy][pred] = rows.value();
      }
    }
    for (const std::string& pred : corpus.predicates) {
      EXPECT_EQ(results[eval::Strategy::kNaive][pred],
                results[eval::Strategy::kSemiNaive][pred])
          << corpus.name << "/" << pred << " seed=" << seed;
      if (corpus.strongly_safe) {
        EXPECT_EQ(results[eval::Strategy::kNaive][pred],
                  results[eval::Strategy::kStratified][pred])
            << corpus.name << "/" << pred << " seed=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, StrategyAgreement, ::testing::ValuesIn(kCorpus),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      return std::string(info.param.name);
    });

// Reverse-of-reverse is the identity — checked through the engine, which
// exercises constructive recursion plus structural extraction.
class ReverseRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReverseRoundTrip, ReverseTwiceIsIdentity) {
  std::vector<std::string> seqs = RandomSequences(GetParam(), 4, 6, "01");
  Engine engine;
  ASSERT_TRUE(engine.LoadProgram(
      "rev(eps, eps) :- true.\n"
      "rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).\n"
      "revrev(Y, Z) :- r(Y), rev(Y, Z).\n").ok());
  std::set<std::string> unique_seqs(seqs.begin(), seqs.end());
  for (const std::string& s : unique_seqs) {
    ASSERT_TRUE(engine.AddFact("r", {s}).ok());
  }
  ASSERT_TRUE(engine.Evaluate().status.ok());
  auto rows = engine.Query("revrev");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), unique_seqs.size());
  for (const RenderedRow& row : rows.value()) {
    std::string reversed(row[0].rbegin(), row[0].rend());
    EXPECT_EQ(row[1], reversed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u));

// The T-operator is monotone (Lemma 2): evaluating over a superset
// database yields a superset model.
TEST(MonotonicityProperty, LargerDatabaseLargerModel) {
  for (unsigned seed : {5u, 6u}) {
    std::vector<std::string> seqs = RandomSequences(seed, 4, 4, "ab");
    Engine small;
    Engine large;
    ASSERT_TRUE(small.LoadProgram(programs::kSuffixes).ok());
    ASSERT_TRUE(large.LoadProgram(programs::kSuffixes).ok());
    for (size_t i = 0; i < seqs.size(); ++i) {
      ASSERT_TRUE(large.AddFact("r", {seqs[i]}).ok());
      if (i < seqs.size() / 2) {
        ASSERT_TRUE(small.AddFact("r", {seqs[i]}).ok());
      }
    }
    ASSERT_TRUE(small.Evaluate().status.ok());
    ASSERT_TRUE(large.Evaluate().status.ok());
    auto small_rows = small.Query("suffix");
    auto large_rows = large.Query("suffix");
    ASSERT_TRUE(small_rows.ok());
    ASSERT_TRUE(large_rows.ok());
    for (const RenderedRow& row : small_rows.value()) {
      EXPECT_NE(std::find(large_rows->begin(), large_rows->end(), row),
                large_rows->end());
    }
  }
}

}  // namespace
}  // namespace seqlog
