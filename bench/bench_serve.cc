// SERVE: the serving tier's two performance claims (docs/SERVING.md).
//
//  1. Batch amortisation: PreparedQuery::ExecuteBatch runs N bindings of
//     one prepared goal in ONE semi-naive run (one magic seed set, one round
//     schedule, one domain closure) instead of N. On genome point
//     lookup the acceptance bar is batch-of-32 >= 3x the throughput of
//     32 sequential Execute calls; the reproduction table prints the
//     measured ratio and cross-checks answer parity item by item.
//  2. Loopback round trips: EXEC and BATCH through the full wire
//     protocol (src/serve/server.h + client.h) over 127.0.0.1, i.e.
//     what a closed-loop client actually observes including framing
//     and syscalls. seqlog-loadgen covers the multi-connection version
//     of the same measurement; these single-connection numbers isolate
//     protocol overhead from queueing.
//
// JSON rows: BM_GenomeSingles32 vs BM_GenomeBatch32 carry
// items_per_second, so the >=3x criterion is checkable straight from
// the JSON report; BM_ServeExecRoundtrip / BM_ServeBatch32Roundtrip are
// the loopback latencies.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/programs.h"
#include "serve/client.h"
#include "serve/server.h"
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

/// A genome engine with `n` random dnaseq facts; probes are the facts
/// themselves (every point lookup hits).
std::vector<std::string> SetupGenome(Engine* engine, size_t n) {
  RegisterGenomeMachines(engine);
  if (!engine->LoadProgram(programs::kGenomePipeline).ok()) std::abort();
  std::vector<std::string> dna = bench::RandomDna(7, n, 24);
  for (const std::string& d : dna) {
    if (!engine->AddFact("dnaseq", {d}).ok()) std::abort();
  }
  return dna;
}

/// `count` one-value bindings drawn from `probes` from `offset` on.
std::vector<query::Binding> MakeBindings(
    Engine* engine, const std::vector<std::string>& probes, size_t offset,
    size_t count) {
  std::vector<query::Binding> bindings;
  bindings.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bindings.push_back({engine->pool()->FromChars(
        probes[(offset + i) % probes.size()], engine->symbols())});
  }
  return bindings;
}

void PrintTable() {
  bench::Banner("SERVE",
                "batched prepared execution vs sequential single calls");
  std::printf("%-22s %-7s %-14s %-14s %-9s\n", "workload (db 400)",
              "batch", "single it/s", "batch it/s", "speedup");

  Engine engine;
  std::vector<std::string> probes = SetupGenome(&engine, 400);
  auto prepared = engine.Prepare("?- rnaseq($1, X).");
  if (!prepared.ok()) std::abort();
  Snapshot snapshot = engine.PublishSnapshot();

  double speedup32 = 0;
  for (size_t size : {8u, 32u, 128u}) {
    // Sequential: `size` independent Execute calls.
    auto t0 = std::chrono::steady_clock::now();
    size_t rounds = 0;
    std::vector<std::vector<std::vector<std::string>>> single_answers;
    do {
      single_answers.clear();
      for (size_t i = 0; i < size; ++i) {
        if (!prepared->Bind(1, probes[i % probes.size()]).ok())
          std::abort();
        ResultSet rs = prepared->Execute(snapshot);
        if (!rs.ok()) std::abort();
        single_answers.push_back(rs.Materialize());
      }
      ++rounds;
    } while (std::chrono::steady_clock::now() - t0 <
             std::chrono::milliseconds(200));
    double single_ips =
        static_cast<double>(rounds * size) /
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    // Batched: the same `size` bindings in one run.
    std::vector<query::Binding> bindings =
        MakeBindings(&engine, probes, 0, size);
    t0 = std::chrono::steady_clock::now();
    rounds = 0;
    BatchResultSet result;
    do {
      result = prepared->ExecuteBatch(snapshot, bindings);
      if (!result.status.ok()) std::abort();
      ++rounds;
    } while (std::chrono::steady_clock::now() - t0 <
             std::chrono::milliseconds(200));
    double batch_ips =
        static_cast<double>(rounds * size) /
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    // Parity: the batch demux must equal the sequential answers.
    if (result.runs != 1) std::abort();
    for (size_t i = 0; i < size; ++i) {
      if (result.results[i].Materialize() != single_answers[i]) {
        std::printf("PARITY MISMATCH at item %zu\n", i);
        std::abort();
      }
    }

    double speedup = batch_ips / single_ips;
    if (size == 32u) speedup32 = speedup;
    std::printf("%-22s %-7zu %-14.0f %-14.0f %.2fx\n",
                "genome point lookup", size, single_ips, batch_ips,
                speedup);
  }
  std::printf("(speedup = batch/single items per second; the PR7 bar is\n"
              " >= 3x at batch 32 — measured %.2fx)\n", speedup32);
  if (speedup32 < 3.0) {
    std::printf("BELOW THE 3x BATCH AMORTISATION BAR\n");
    std::abort();
  }
}

// --- JSON rows -------------------------------------------------------

/// 32 sequential prepared Execute calls per iteration; items_per_second
/// is the honest single-call throughput.
void BM_GenomeSingles32(benchmark::State& state) {
  Engine engine;
  std::vector<std::string> probes = SetupGenome(&engine, 400);
  auto prepared = engine.Prepare("?- rnaseq($1, X).");
  if (!prepared.ok()) std::abort();
  Snapshot snapshot = engine.PublishSnapshot();
  for (auto _ : state) {
    for (size_t i = 0; i < 32; ++i) {
      if (!prepared->Bind(1, probes[i]).ok()) std::abort();
      ResultSet rs = prepared->Execute(snapshot);
      if (!rs.ok()) std::abort();
      benchmark::DoNotOptimize(rs.size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_GenomeSingles32)->Unit(benchmark::kMicrosecond);

/// The same 32 bindings as one ExecuteBatch run per iteration.
void BM_GenomeBatch32(benchmark::State& state) {
  Engine engine;
  std::vector<std::string> probes = SetupGenome(&engine, 400);
  auto prepared = engine.Prepare("?- rnaseq($1, X).");
  if (!prepared.ok()) std::abort();
  Snapshot snapshot = engine.PublishSnapshot();
  std::vector<query::Binding> bindings =
      MakeBindings(&engine, probes, 0, 32);
  for (auto _ : state) {
    BatchResultSet result = prepared->ExecuteBatch(snapshot, bindings);
    if (!result.status.ok()) std::abort();
    benchmark::DoNotOptimize(result.results.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_GenomeBatch32)->Unit(benchmark::kMicrosecond);

/// One wire EXEC round trip per iteration over loopback.
void BM_ServeExecRoundtrip(benchmark::State& state) {
  Engine engine;
  std::vector<std::string> probes = SetupGenome(&engine, 400);
  serve::ServerOptions options;
  options.port = 0;
  serve::Server server(&engine, options);
  if (!server.Start().ok()) std::abort();
  serve::TextClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) std::abort();
  if (!client.Roundtrip("PREPARE q ?- rnaseq($1, X).")->ok())
    std::abort();
  size_t i = 0;
  for (auto _ : state) {
    auto reply =
        client.Roundtrip("EXEC q " + probes[i++ % probes.size()]);
    if (!reply.ok() || !reply.value().ok()) std::abort();
    benchmark::DoNotOptimize(reply.value().body.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeExecRoundtrip)->Unit(benchmark::kMicrosecond);

/// One wire BATCH of 32 per iteration over loopback.
void BM_ServeBatch32Roundtrip(benchmark::State& state) {
  Engine engine;
  std::vector<std::string> probes = SetupGenome(&engine, 400);
  serve::ServerOptions options;
  options.port = 0;
  serve::Server server(&engine, options);
  if (!server.Start().ok()) std::abort();
  serve::TextClient client;
  if (!client.Connect("127.0.0.1", server.port()).ok()) std::abort();
  if (!client.Roundtrip("PREPARE q ?- rnaseq($1, X).")->ok())
    std::abort();
  std::vector<std::string> lines(probes.begin(), probes.begin() + 32);
  for (auto _ : state) {
    auto reply = client.Roundtrip("BATCH q 32", lines);
    if (!reply.ok() || !reply.value().ok()) std::abort();
    benchmark::DoNotOptimize(reply.value().body.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_ServeBatch32Roundtrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
