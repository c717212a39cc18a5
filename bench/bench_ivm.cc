// IVM: the live-ingest tier's performance claim (docs/STREAMING.md).
//
// A saturated model maintained by ivm::IncrementalModel::Apply re-runs
// the semi-naive rounds from the EDB rows it has not absorbed as a
// round-0 delta, so the cost of absorbing B new facts scales with the
// consequences of those B facts — not with the database. The cold alternative
// (Engine::Evaluate over the union) re-derives everything. On the
// genome pipeline at db 400 the acceptance bar is: incremental drain of
// a batch of 1 >= 10x faster than a cold re-evaluation; the
// reproduction table prints measured latencies for batches of 1/32/1024
// and cross-checks model parity (fact count, domain size, rendered
// rows) between the incrementally maintained engine and a cold engine
// evaluated over the same union.
//
// JSON rows: BM_GenomeColdEvaluate/B vs BM_GenomeIncrementalApply/B
// carry the per-batch latency at each size, so the >=10x criterion is
// checkable straight from the JSON report.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/programs.h"
#include "transducer/genome.h"

namespace {

using namespace seqlog;

constexpr size_t kBaseFacts = 400;
constexpr size_t kSeqLen = 24;

void RegisterGenomeMachines(Engine* engine) {
  auto transcribe =
      transducer::MakeTranscribe("transcribe", engine->symbols());
  auto translate =
      transducer::MakeTranslate("translate", engine->symbols());
  if (!transcribe.ok() || !translate.ok()) std::abort();
  if (!engine->RegisterTransducer(transcribe.value()).ok()) std::abort();
  if (!engine->RegisterTransducer(translate.value()).ok()) std::abort();
}

/// The shared db-400 base (seed 7, like bench_serve).
void AddBaseFacts(Engine* engine) {
  for (const std::string& d : bench::RandomDna(7, kBaseFacts, kSeqLen)) {
    if (!engine->AddFact("dnaseq", {d}).ok()) std::abort();
  }
}

/// A genome engine with the db-400 base plus `extra` facts already in
/// the EDB. Not evaluated.
void SetupGenome(Engine* engine, const std::vector<std::string>& extra) {
  RegisterGenomeMachines(engine);
  if (!engine->LoadProgram(programs::kGenomePipeline).ok()) std::abort();
  AddBaseFacts(engine);
  for (const std::string& d : extra) {
    if (!engine->AddFact("dnaseq", {d}).ok()) std::abort();
  }
}

/// Counter-encoded DNA: distinct from each other by construction and
/// from the random base with near certainty (4^24 space).
std::string EncodeDna(uint64_t n) {
  static const char kAlpha[] = "acgt";
  std::string s(kSeqLen, 'a');
  for (size_t i = 0; i < kSeqLen && n != 0; ++i) {
    s[kSeqLen - 1 - i] = kAlpha[n % 4];
    n /= 4;
  }
  return s;
}

std::vector<std::string> FreshBatch(uint64_t* counter, size_t size) {
  std::vector<std::string> batch;
  batch.reserve(size);
  for (size_t i = 0; i < size; ++i) batch.push_back(EncodeDna((*counter)++));
  return batch;
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void PrintTable() {
  bench::Banner("IVM",
                "incremental re-saturation vs cold re-evaluation");
  std::printf("%-22s %-7s %-10s %-10s %-9s\n", "workload (db 400)",
              "batch", "cold ms", "apply ms", "speedup");

  uint64_t counter = 1;
  constexpr int kTrials = 5;
  double speedup1 = 0;
  for (size_t size : {1u, 32u, 1024u}) {
    double cold_ms = 1e18, apply_ms = 1e18;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<std::string> batch = FreshBatch(&counter, size);

      // Cold: evaluate the union from scratch.
      Engine cold;
      SetupGenome(&cold, batch);
      auto t0 = std::chrono::steady_clock::now();
      if (!cold.Evaluate().status.ok()) std::abort();
      cold_ms = std::min(cold_ms, MillisSince(t0));

      // Incremental: saturate the base, add the batch, drain.
      Engine inc;
      SetupGenome(&inc, {});
      if (!inc.Evaluate().status.ok()) std::abort();
      for (const std::string& d : batch) {
        if (!inc.AddFact("dnaseq", {d}).ok()) std::abort();
      }
      t0 = std::chrono::steady_clock::now();
      eval::EvalOutcome drained = inc.DrainIngest();
      apply_ms = std::min(apply_ms, MillisSince(t0));
      if (!drained.status.ok() || drained.stats.cold_fallback ||
          drained.stats.ingested_facts == 0) {
        std::printf("INCREMENTAL DRAIN DID NOT TAKE THE APPLY PATH\n");
        std::abort();
      }

      // Parity: the maintained model must equal the cold union model.
      if (trial == 0) {
        if (inc.live_model().model()->TotalFacts() !=
                cold.live_model().model()->TotalFacts() ||
            inc.live_model().domain()->size() !=
                cold.live_model().domain()->size() ||
            inc.Query("rnaseq").value() != cold.Query("rnaseq").value() ||
            inc.Query("proteinseq").value() !=
                cold.Query("proteinseq").value()) {
          std::printf("PARITY MISMATCH at batch %zu\n", size);
          std::abort();
        }
      }
    }
    double speedup = cold_ms / apply_ms;
    if (size == 1u) speedup1 = speedup;
    std::printf("%-22s %-7zu %-10.3f %-10.3f %.1fx\n", "genome pipeline",
                size, cold_ms, apply_ms, speedup);
  }
  std::printf("(speedup = cold/apply latency, min of %d trials; the PR8\n"
              " bar is >= 10x at batch 1 — measured %.1fx)\n",
              5, speedup1);
  if (speedup1 < 10.0) {
    std::printf("BELOW THE 10x INCREMENTAL MAINTENANCE BAR\n");
    std::abort();
  }
}

// --- JSON rows -------------------------------------------------------

/// One cold fixpoint over db 400 + B per iteration.
void BM_GenomeColdEvaluate(benchmark::State& state) {
  uint64_t counter = 1u << 20;  // distinct range from the table's facts
  Engine engine;
  SetupGenome(&engine,
              FreshBatch(&counter, static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    if (!engine.Evaluate().status.ok()) std::abort();
    benchmark::DoNotOptimize(engine.live_model().model()->TotalFacts());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenomeColdEvaluate)
    ->Arg(1)
    ->Arg(32)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// One incremental drain of a fresh batch of B per iteration; the
/// engine is re-seated to the saturated db-400 base between iterations
/// (paused) so every measured drain starts from the same model.
void BM_GenomeIncrementalApply(benchmark::State& state) {
  uint64_t counter = 1u << 30;
  const size_t size = static_cast<size_t>(state.range(0));
  Engine engine;
  SetupGenome(&engine, {});
  if (!engine.Evaluate().status.ok()) std::abort();
  for (auto _ : state) {
    state.PauseTiming();
    engine.ClearFacts();  // program and machines stay loaded
    AddBaseFacts(&engine);
    if (!engine.Evaluate().status.ok()) std::abort();
    for (const std::string& d : FreshBatch(&counter, size)) {
      if (!engine.AddFact("dnaseq", {d}).ok()) std::abort();
    }
    state.ResumeTiming();
    eval::EvalOutcome drained = engine.DrainIngest();
    if (!drained.status.ok() || drained.stats.cold_fallback) std::abort();
    benchmark::DoNotOptimize(drained.stats.ingested_facts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenomeIncrementalApply)
    ->Arg(1)
    ->Arg(32)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
