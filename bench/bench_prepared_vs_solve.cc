// PREPARED: per-call latency of PreparedQuery::Execute versus a cold
// one-shot goal (Prepare + Execute per call) on the point-query
// workloads of bench_magic_vs_fixpoint (suffix membership and genome
// point lookup).
//
// The cold path pays parse + adorn + magic rewrite + safety recheck +
// plan compilation on EVERY call; the prepared path pays them once and
// then only swaps the magic seed fact per call. The reproduction table
// reports mean microseconds per call for both paths and their ratio;
// answers are cross-checked call by call, and the prepared counters are
// asserted to stay at one parse / one rewrite.
#include <benchmark/benchmark.h>

#include <chrono>
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

struct Workload {
  const char* name;
  const char* program;
  bool genome;
  const char* fact_pred;
  std::string goal_param;   // parameterized goal for Prepare
  std::string goal_prefix;  // cold goal: prefix + probe + suffix
  std::string goal_suffix;
};

/// A cold one-shot goal: Prepare + Execute + rendered, sorted answers.
std::vector<RenderedRow> ColdSolve(Engine* engine, const std::string& goal) {
  Result<PreparedQuery> prepared = engine->Prepare(goal);
  if (!prepared.ok()) std::abort();
  ResultSet rs = prepared->Execute();
  if (!rs.ok()) std::abort();
  return rs.Materialize();
}

/// Mean micros per call over `calls` invocations of `fn`.
template <typename Fn>
double MeanMicros(size_t calls, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < calls; ++i) fn(i);
  auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(stop - start).count() /
         static_cast<double>(calls);
}

void PrintTable() {
  bench::Banner("PREPARED",
                "PreparedQuery::Execute vs a cold Prepare + Execute");
  std::printf("%-26s %-8s %-12s %-14s %-8s\n", "workload", "db seqs",
              "cold us/call", "prepared us/call", "speedup");

  const Workload workloads[] = {
      {"suffix membership", programs::kSuffixes, false, "r",
       "?- suffix($1).", "?- suffix(", ")."},
      {"genome point lookup", programs::kGenomePipeline, true, "dnaseq",
       "?- rnaseq($1, X).", "?- rnaseq(", ", X)."},
  };

  for (const Workload& w : workloads) {
    for (size_t n : {16u, 64u, 256u}) {
      std::vector<std::string> dna =
          bench::RandomDna(7, n, w.genome ? 24 : 32);
      std::vector<std::string> probes;
      for (size_t i = 0; i < dna.size(); ++i) {
        probes.push_back(w.genome ? dna[i]
                                  : dna[i].substr(dna[i].size() - 6));
      }

      Engine engine;
      if (w.genome) RegisterGenomeMachines(&engine);
      if (!engine.LoadProgram(w.program).ok()) std::abort();
      for (const auto& d : dna) engine.AddFact(w.fact_pred, {d});

      const size_t calls = 50;
      double cold_us = MeanMicros(calls, [&](size_t i) {
        benchmark::DoNotOptimize(
            ColdSolve(&engine, w.goal_prefix + probes[i % probes.size()] +
                                   w.goal_suffix)
                .size());
      });

      auto prepared = engine.Prepare(w.goal_param);
      if (!prepared.ok()) std::abort();
      Snapshot snapshot = engine.PublishSnapshot();
      double prepared_us = MeanMicros(calls, [&](size_t i) {
        if (!prepared->Bind(1, probes[i % probes.size()]).ok())
          std::abort();
        ResultSet rs = prepared->Execute(snapshot);
        if (!rs.ok()) std::abort();
        benchmark::DoNotOptimize(rs.size());
      });

      // Cross-check: same answers on both paths for every probe.
      for (const std::string& probe : probes) {
        if (!prepared->Bind(1, probe).ok()) std::abort();
        ResultSet rs = prepared->Execute(snapshot);
        if (!rs.ok() || rs.Materialize() !=
                            ColdSolve(&engine,
                                      w.goal_prefix + probe + w.goal_suffix)) {
          std::printf("MISMATCH on %s probe %s\n", w.name, probe.c_str());
          std::abort();
        }
      }
      PreparedQueryStats stats = prepared->stats();
      if (stats.goal_parses != 1 || stats.magic_rewrites != 1) {
        std::printf("PREPARED PATH RE-PARSED/RE-REWROTE\n");
        std::abort();
      }

      std::printf("%-26s %-8zu %-12.1f %-14.1f %.2fx\n", w.name, n,
                  cold_us, prepared_us, cold_us / prepared_us);
    }
  }
  std::printf("(speedup = cold/prepared; the prepared path must win on\n"
              " both workloads — it skips parse/adorn/rewrite/compile)\n");
}

void BM_ColdSolveSuffix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(9, n, 32);
  std::string goal = "?- suffix(" + dna[0].substr(dna[0].size() - 6) + ").";
  Engine engine;
  if (!engine.LoadProgram(programs::kSuffixes).ok()) std::abort();
  for (const auto& d : dna) engine.AddFact("r", {d});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdSolve(&engine, goal).size());
  }
}
BENCHMARK(BM_ColdSolveSuffix)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_PreparedExecuteSuffix(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(9, n, 32);
  std::string probe = dna[0].substr(dna[0].size() - 6);
  Engine engine;
  if (!engine.LoadProgram(programs::kSuffixes).ok()) std::abort();
  for (const auto& d : dna) engine.AddFact("r", {d});
  auto prepared = engine.Prepare("?- suffix($1).");
  if (!prepared.ok()) std::abort();
  if (!prepared->Bind(1, probe).ok()) std::abort();
  Snapshot snapshot = engine.PublishSnapshot();
  for (auto _ : state) {
    ResultSet rs = prepared->Execute(snapshot);
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs.size());
  }
}
BENCHMARK(BM_PreparedExecuteSuffix)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_ColdSolveGenome(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(10, n, 24);
  std::string goal = "?- rnaseq(" + dna[n / 2] + ", X).";
  Engine engine;
  RegisterGenomeMachines(&engine);
  if (!engine.LoadProgram(programs::kGenomePipeline).ok()) std::abort();
  for (const auto& d : dna) engine.AddFact("dnaseq", {d});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdSolve(&engine, goal).size());
  }
}
BENCHMARK(BM_ColdSolveGenome)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_PreparedExecuteGenome(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::string> dna = bench::RandomDna(10, n, 24);
  Engine engine;
  RegisterGenomeMachines(&engine);
  if (!engine.LoadProgram(programs::kGenomePipeline).ok()) std::abort();
  for (const auto& d : dna) engine.AddFact("dnaseq", {d});
  auto prepared = engine.Prepare("?- rnaseq($1, X).");
  if (!prepared.ok()) std::abort();
  if (!prepared->Bind(1, dna[n / 2]).ok()) std::abort();
  Snapshot snapshot = engine.PublishSnapshot();
  for (auto _ : state) {
    ResultSet rs = prepared->Execute(snapshot);
    if (!rs.ok()) std::abort();
    benchmark::DoNotOptimize(rs.size());
  }
}
BENCHMARK(BM_PreparedExecuteGenome)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
