// MAGIC: goal-directed (magic-set) evaluation versus the full fixpoint.
//
// Three workloads on the paper's motivating programs:
//  * suffix membership (Example 1.1 / the Figure 2 shape): the full
//    fixpoint materialises every suffix of every database sequence; the
//    demand run derives only the facts needed to confirm one suffix;
//  * genome point lookup (Example 7.1): transcribe exactly one demanded
//    DNA sequence instead of the whole database — the "millions of point
//    queries" scenario of a production Sequence Datalog service;
//  * a^n b^n c^n membership (Example 1.3): the structural-recursion
//    subgoal is not bindable (its variables are unguarded), so magic
//    degenerates to roughly the full evaluation — the honest baseline
//    row showing when demand does NOT help.
//
// The reproduction table reports derived facts (total minus database) for
// both paths and their ratio; the suffix and genome workloads must show
// >= 5x fewer derived facts. Answers are cross-checked on every run.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "bench_util.h"
#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"

namespace {

using namespace seqlog;

void RegisterGenomeMachines(Engine* engine) {
  auto transcribe =
      transducer::MakeTranscribe("transcribe", engine->symbols());
  auto translate =
      transducer::MakeTranslate("translate", engine->symbols());
  if (!transcribe.ok() || !translate.ok()) std::abort();
  if (!engine->RegisterTransducer(transcribe.value()).ok()) std::abort();
  if (!engine->RegisterTransducer(translate.value()).ok()) std::abort();
}

/// Answers a ground goal by demand evaluation (Prepare + Execute).
ResultSet Solve(Engine* engine, const std::string& goal) {
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  if (!prepared.ok()) std::abort();
  ResultSet rs = prepared->Execute();
  if (!rs.ok()) std::abort();
  return rs;
}

struct Comparison {
  size_t full_derived = 0;
  size_t magic_derived = 0;
  double full_millis = 0;
  double magic_millis = 0;
  size_t answers = 0;
};

/// Runs Evaluate and a demand goal on a fresh engine pair and cross-checks that
/// the goal's answers agree with the full model.
Comparison Compare(const char* program, bool genome,
                   const std::vector<std::string>& facts,
                   const char* fact_pred, const std::string& goal,
                   const char* goal_pred,
                   const std::string& bound_value) {
  Comparison out;

  Engine full;
  if (genome) RegisterGenomeMachines(&full);
  if (!full.LoadProgram(program).ok()) std::abort();
  for (const auto& f : facts) full.AddFact(fact_pred, {f});
  eval::EvalOutcome full_out = full.Evaluate();
  if (!full_out.status.ok()) std::abort();
  out.full_derived = full_out.stats.facts - full.edb().TotalFacts();
  out.full_millis = full_out.stats.millis;

  Engine magic;
  if (genome) RegisterGenomeMachines(&magic);
  if (!magic.LoadProgram(program).ok()) std::abort();
  for (const auto& f : facts) magic.AddFact(fact_pred, {f});
  ResultSet solved = Solve(&magic, goal);
  out.magic_derived = solved.stats().derived_facts;
  out.magic_millis = solved.stats().eval.millis;
  out.answers = solved.size();

  // Cross-check: the demand answers equal the full model restricted to
  // the goal's bound first argument.
  auto rows = full.Query(goal_pred);
  if (!rows.ok()) std::abort();
  size_t expect = 0;
  for (const RenderedRow& row : rows.value()) {
    if (row[0] == bound_value) ++expect;
  }
  if (expect != out.answers) {
    std::printf("MISMATCH: full restricted=%zu, magic=%zu for %s\n",
                expect, out.answers, goal.c_str());
    std::abort();
  }
  return out;
}

void PrintTable() {
  bench::Banner("MAGIC", "magic sets vs full fixpoint (derived facts)");
  std::printf("%-26s %-10s %-12s %-12s %-8s\n", "workload", "db seqs",
              "full facts", "magic facts", "ratio");

  for (size_t n : {16u, 64u, 256u}) {
    std::vector<std::string> dna = bench::RandomDna(7, n, 32);
    std::string needle = dna[0].substr(dna[0].size() - 6);
    Comparison c = Compare(programs::kSuffixes, false, dna, "r",
                           "?- suffix(" + needle + ").", "suffix", needle);
    std::printf("%-26s %-10zu %-12zu %-12zu %.1fx\n", "suffix membership",
                n, c.full_derived, c.magic_derived,
                static_cast<double>(c.full_derived) /
                    static_cast<double>(c.magic_derived ? c.magic_derived
                                                        : 1));
  }

  for (size_t n : {16u, 64u, 256u}) {
    std::vector<std::string> dna = bench::RandomDna(8, n, 24);
    Comparison c =
        Compare(programs::kGenomePipeline, true, dna, "dnaseq",
                "?- rnaseq(" + dna[n / 2] + ", X).", "rnaseq", dna[n / 2]);
    std::printf("%-26s %-10zu %-12zu %-12zu %.1fx\n",
                "genome point lookup", n, c.full_derived, c.magic_derived,
                static_cast<double>(c.full_derived) /
                    static_cast<double>(c.magic_derived ? c.magic_derived
                                                        : 1));
  }

  {
    std::vector<std::string> words;
    for (size_t k = 1; k <= 4; ++k) {
      words.push_back(std::string(k, 'a') + std::string(k, 'b') +
                      std::string(k, 'c'));
    }
    Comparison c = Compare(programs::kAbcN, false, words, "r",
                           "?- answer(" + words[2] + ").", "answer",
                           words[2]);
    std::printf("%-26s %-10zu %-12zu %-12zu %.1fx  (unbindable subgoal)\n",
                "a^n b^n c^n membership", words.size(), c.full_derived,
                c.magic_derived,
                static_cast<double>(c.full_derived) /
                    static_cast<double>(c.magic_derived ? c.magic_derived
                                                        : 1));
  }
  std::printf("(suffix and genome rows must stay >= 5x: the acceptance\n"
              " bar for demand evaluation on bound-argument workloads)\n");
}

void BM_FullFixpointSuffix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(9, n, 32);
  for (auto _ : state) {
    Engine engine;
    if (!engine.LoadProgram(programs::kSuffixes).ok()) std::abort();
    for (const auto& d : dna) engine.AddFact("r", {d});
    eval::EvalOutcome outcome = engine.Evaluate();
    if (!outcome.status.ok()) std::abort();
    benchmark::DoNotOptimize(outcome.stats.facts);
  }
}
BENCHMARK(BM_FullFixpointSuffix)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_MagicSuffixPointQuery(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(9, n, 32);
  std::string goal = "?- suffix(" + dna[0].substr(dna[0].size() - 6) + ").";
  Engine engine;
  if (!engine.LoadProgram(programs::kSuffixes).ok()) std::abort();
  for (const auto& d : dna) engine.AddFact("r", {d});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solve(&engine, goal).size());
  }
}
BENCHMARK(BM_MagicSuffixPointQuery)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_FullFixpointGenome(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(10, n, 24);
  for (auto _ : state) {
    Engine engine;
    RegisterGenomeMachines(&engine);
    if (!engine.LoadProgram(programs::kGenomePipeline).ok()) std::abort();
    for (const auto& d : dna) engine.AddFact("dnaseq", {d});
    eval::EvalOutcome outcome = engine.Evaluate();
    if (!outcome.status.ok()) std::abort();
    benchmark::DoNotOptimize(outcome.stats.facts);
  }
}
BENCHMARK(BM_FullFixpointGenome)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_MagicGenomePointLookup(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(10, n, 24);
  std::string goal = "?- rnaseq(" + dna[n / 2] + ", X).";
  Engine engine;
  RegisterGenomeMachines(&engine);
  if (!engine.LoadProgram(programs::kGenomePipeline).ok()) std::abort();
  for (const auto& d : dna) engine.AddFact("dnaseq", {d});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Solve(&engine, goal).size());
  }
}
BENCHMARK(BM_MagicGenomePointLookup)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
