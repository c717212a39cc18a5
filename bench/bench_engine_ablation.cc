// ENG: evaluation-strategy ablation. Not a paper table — it justifies
// the engine design choices called out in DESIGN.md: semi-naive firing
// beats naive re-derivation, and the Theorem 8 stratified driver applies
// constructive layers once.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/engine.h"
#include "core/programs.h"

namespace {

using namespace seqlog;

const char kClosureProgram[] =
    "link(X[1:N], X[N+1:end]) :- r(X).\n"
    "conn(X, Y) :- link(X, Y).\n"
    "conn(X, Z) :- conn(X, Y), link(Y, Z).\n";

eval::EvalOutcome RunProgram(const char* program, const char* fact_pred,
                             const std::vector<std::string>& seqs,
                             eval::Strategy strategy) {
  Engine engine;
  if (!engine.LoadProgram(program).ok()) std::abort();
  for (const std::string& s : seqs) engine.AddFact(fact_pred, {s});
  eval::EvalOptions options;
  options.strategy = strategy;
  eval::EvalOutcome outcome = engine.Evaluate(options);
  if (!outcome.status.ok()) std::abort();
  return outcome;
}

void PrintTable() {
  bench::Banner("ENG", "evaluation strategy ablation");
  struct Row {
    const char* name;
    const char* program;
    const char* pred;
    std::vector<std::string> seqs;
    bool stratifiable;
  };
  std::vector<Row> rows = {
      {"abc_n", programs::kAbcN, "r",
       bench::RandomSequences(41, 6, 9, "abc"), true},
      {"reverse", programs::kReverse, "r",
       bench::RandomSequences(42, 4, 10, "01"), false},
      {"closure", kClosureProgram, "r",
       bench::RandomSequences(43, 4, 8, "abcd"), true},
  };
  std::printf("%-10s %-24s %-24s %-24s\n", "workload",
              "naive (iters/ms)", "semi-naive (iters/ms)",
              "stratified (iters/ms)");
  for (const Row& row : rows) {
    eval::EvalOutcome naive =
        RunProgram(row.program, row.pred, row.seqs,
                   eval::Strategy::kNaive);
    eval::EvalOutcome semi =
        RunProgram(row.program, row.pred, row.seqs,
                   eval::Strategy::kSemiNaive);
    std::printf("%-10s %6zu / %-15.2f %6zu / %-15.2f", row.name,
                naive.stats.iterations, naive.stats.millis,
                semi.stats.iterations, semi.stats.millis);
    if (row.stratifiable) {
      eval::EvalOutcome strat =
          RunProgram(row.program, row.pred, row.seqs,
                     eval::Strategy::kStratified);
      std::printf(" %6zu / %-15.2f\n", strat.stats.iterations,
                  strat.stats.millis);
    } else {
      std::printf("   (not strongly safe)\n");
    }
    if (naive.stats.facts != semi.stats.facts) std::abort();
  }
}

void BM_Strategy(benchmark::State& state) {
  eval::Strategy strategy = static_cast<eval::Strategy>(state.range(0));
  std::vector<std::string> seqs = bench::RandomSequences(44, 5, 9, "abc");
  for (auto _ : state) {
    eval::EvalOutcome outcome =
        RunProgram(programs::kAbcN, "r", seqs, strategy);
    benchmark::DoNotOptimize(outcome.stats.facts);
  }
}
BENCHMARK(BM_Strategy)
    ->Arg(static_cast<int>(eval::Strategy::kNaive))
    ->Arg(static_cast<int>(eval::Strategy::kSemiNaive))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
